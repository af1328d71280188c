package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"darshanldms/internal/connector"
	"darshanldms/internal/dsos"
	"darshanldms/internal/event"
	"darshanldms/internal/jsonmsg"
	"darshanldms/internal/ldms"
	"darshanldms/internal/obs"
	"darshanldms/internal/sos"
	"darshanldms/internal/streams"
	"darshanldms/internal/topo"
)

// stampLog records one wall-clock reading per (producer, seq) delivery
// identity and how often the identity was seen. Each log has its own
// lock; readers look only after the pipeline has drained.
type stampLog struct {
	mu sync.Mutex
	at [][]int64 // [producer][seq] ns since the run epoch
	n  [][]uint8 // [producer][seq] times seen (saturating)
}

func newStampLog(producers int) *stampLog {
	return &stampLog{at: make([][]int64, producers), n: make([][]uint8, producers)}
}

func (l *stampLog) mark(prod int, seq uint64, t int64) {
	l.mu.Lock()
	for uint64(len(l.at[prod])) <= seq {
		l.at[prod] = append(l.at[prod], 0)
		l.n[prod] = append(l.n[prod], 0)
	}
	if l.n[prod][seq] == 0 {
		l.at[prod][seq] = t
	}
	if l.n[prod][seq] < 255 {
		l.n[prod][seq]++
	}
	l.mu.Unlock()
}

// get returns the first reading of (prod, seq) and how often it was seen.
func (l *stampLog) get(prod int, seq uint64) (int64, int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if uint64(len(l.at[prod])) <= seq {
		return 0, 0
	}
	return l.at[prod][seq], int(l.n[prod][seq])
}

// probeStore wraps the pipeline's innermost store plugin. The moment its
// Store returns is the event's store commit, the end point of every
// freshness figure; it also counts stored identities for the loss and
// duplicate accounting, and per-rank rows of the live job so a query can
// be checked while ingest runs.
type probeStore struct {
	inner    ldms.StorePlugin
	epoch    time.Time
	prodIdx  map[string]int // read-only after set-up
	commits  *stampLog
	stored   atomic.Int64 // messages stored
	last     atomic.Int64 // latest commit, ns since the run epoch
	busyNs   atomic.Int64 // time spent inside inner.Store
	tr       *tracer      // nil unless tracing
	liveJob  int64
	started  []atomic.Int64 // live-job rows per rank, counted before Store
	finished []atomic.Int64 // live-job rows per rank, counted after Store
}

func (p *probeStore) Name() string { return p.inner.Name() }

func (p *probeStore) Store(m streams.Message) error {
	var live *jsonmsg.Message
	if p.started != nil {
		if f, err := event.Fields(m); err == nil && f.JobID == p.liveJob {
			live = f
			p.started[f.Rank].Add(int64(len(f.Seg)))
		}
	}
	sp := p.tr.open("dsos.store", m.Producer, m.Seq)
	start := time.Now()
	err := p.inner.Store(m)
	end := time.Now()
	p.tr.close(sp)
	if err != nil {
		return err
	}
	if live != nil {
		p.finished[live.Rank].Add(int64(len(live.Seg)))
	}
	p.busyNs.Add(int64(end.Sub(start)))
	at := int64(end.Sub(p.epoch))
	if idx, ok := p.prodIdx[m.Producer]; ok {
		p.commits.mark(idx, m.Seq, at)
	}
	p.last.Store(at)
	p.stored.Add(1)
	return nil
}

// tracedStore times one store-chain stage (the DedupStore) as a span.
type tracedStore struct {
	name  string
	inner ldms.StorePlugin
	tr    *tracer
}

func (s *tracedStore) Name() string { return s.inner.Name() }

func (s *tracedStore) Store(m streams.Message) error {
	sp := s.tr.open(s.name, m.Producer, m.Seq)
	err := s.inner.Store(m)
	s.tr.close(sp)
	return err
}

// tracedWAL times a shard's write-ahead-log appends as "sos.wal_write"
// spans nested in the store span that caused them.
type tracedWAL struct {
	*sos.FileWAL
	tr *tracer
}

func (w *tracedWAL) Write(p []byte) (int, error) {
	sp := w.tr.open("sos.wal_write", "", 0)
	n, err := w.FileWAL.Write(p)
	w.tr.close(sp)
	return n, err
}

// hop is one daemon of a pipeline: its bus (where the benchmark hangs a
// timing subscriber in the traced run) and, for daemons reached over
// TCP, the server whose counters give the hop's wire volume.
type hop struct {
	name    string
	daemon  *ldms.Daemon
	srv     *ldms.TCPServer
	stream  *streams.DurableStream
	segment string // segment file of the daemon's durable stream
}

// pipeline is one wired workload topology: a connector publishing into
// the node daemon, TCP hops up to the store daemon, and the shards.
type pipeline struct {
	conn     *connector.Connector
	probe    *probeStore
	hops     []hop
	shards   []*dsos.Daemon
	walFiles []string
	client   *dsos.Client      // round-robin cluster (no -topo)
	hash     *topo.HashCluster // consistent-hash placement (-topo-role store)
	fwds     []*ldms.ReconnectingForwarder
	uplinks  []*ldms.StreamUplink
	dedup    *ldms.DedupStore
	ingest   *ingestLoop
	reg      *obs.Registry
	closers  []func() error
}

// query runs a range query through the store daemon's client path: the
// cluster's k-way merge, or the hash cluster's owner merge under -topo.
func (p *pipeline) query(index string, from, to sos.Key) ([]sos.Object, error) {
	if p.hash != nil {
		objs, _, err := p.hash.Query(index, from, to)
		return objs, err
	}
	return p.client.Query(index, from, to)
}

func (p *pipeline) close() error {
	var first error
	for i := len(p.closers) - 1; i >= 0; i-- {
		if err := p.closers[i](); err != nil && first == nil {
			first = err
		}
	}
	p.closers = nil
	return first
}

// pipelineConfig selects the topology and sizes of one pipeline.
type pipelineConfig struct {
	durable  bool
	shards   int
	dir      string // segment and WAL files go here
	epoch    time.Time
	prodIdx  map[string]int
	liveJob  int64
	liveRank int // ranks of the live job (0 = no per-rank accounting)
	meta     jsonmsg.JobMeta
	tr       *tracer
	// onDaemon, when set, is called with each daemon as soon as it is
	// created, before any store or forwarder subscribes to its bus, so a
	// handler it subscribes sees each message first.
	onDaemon func(hop string, d *ldms.Daemon)
	// wrapStore, when set, wraps the store plugin under the probe (the
	// gate's own tests inject a faulty store through it).
	wrapStore func(ldms.StorePlugin) ldms.StorePlugin
}

// newPipeline wires the workload's daemons exactly as the ldmsd/dsosd
// flags of its tree configure them (see README.md for the command
// lines), with real loopback TCP between them.
func newPipeline(cfg pipelineConfig) (*pipeline, error) {
	p := &pipeline{reg: obs.NewRegistry()}
	store, err := p.newStoreDaemon(cfg)
	if err != nil {
		p.close()
		return nil, err
	}
	parent := store.srv.Addr()
	var levels []hop
	for _, role := range []string{"l1", "node"} {
		h, err := p.newAggregator(cfg, role, parent)
		if err != nil {
			p.close()
			return nil, err
		}
		levels = append(levels, h)
		parent = ""
		if h.srv != nil {
			parent = h.srv.Addr()
		}
	}
	node := levels[1].daemon
	p.hops = []hop{levels[1], levels[0], store}
	p.conn = connector.New(connector.Config{
		Encoder: jsonmsg.FastEncoder{},
		Meta:    cfg.meta,
	}, func(string) *ldms.Daemon { return node })
	return p, nil
}

// newStoreDaemon builds dsosd: the shards, the ingest daemon and its TCP
// listener. Best effort: `dsosd -daemons N` (bus -> DSOSStore). Durable:
// `dsosd -stream -wal -topo-role store -daemons N` (bus -> durable stream
// -> consumer-acked ingest loop -> DedupStore -> HashStore).
func (p *pipeline) newStoreDaemon(cfg pipelineConfig) (hop, error) {
	tag := connector.DefaultTag
	cluster := dsos.NewCluster(cfg.shards, "darshan_data")
	if err := dsos.SetupDarshan(cluster); err != nil {
		return hop{}, err
	}
	cluster.SetReplication(1)
	p.shards = cluster.Daemons()
	p.client = dsos.Connect(cluster)
	d := ldms.NewDaemon("dsosd-ingest", "dsosd")
	h := hop{name: "dsosd", daemon: d}
	if cfg.onDaemon != nil {
		cfg.onDaemon(h.name, d)
	}
	var inner ldms.StorePlugin
	if cfg.durable {
		walDir := filepath.Join(cfg.dir, "wal")
		if err := os.MkdirAll(walDir, 0o755); err != nil {
			return hop{}, err
		}
		for _, sd := range p.shards {
			path := filepath.Join(walDir, sd.Name+".wal")
			fw, err := sos.OpenFileWAL(path)
			if err != nil {
				return hop{}, err
			}
			p.closers = append(p.closers, fw.Close)
			p.walFiles = append(p.walFiles, path)
			if cfg.tr != nil {
				sd.EnableWAL(&tracedWAL{FileWAL: fw, tr: cfg.tr})
			} else {
				sd.EnableWAL(fw)
			}
		}
		hc, err := topo.NewHashCluster(topo.HashConfig{
			Replication: 1,
			Index:       "job_rank_time",
		}, p.shards)
		if err != nil {
			return hop{}, err
		}
		p.hash = hc
		inner = topo.NewHashStore(hc)
	} else {
		inner = ldms.NewDSOSStore(p.client)
	}
	if cfg.wrapStore != nil {
		inner = cfg.wrapStore(inner)
	}
	p.probe = &probeStore{
		inner: inner, epoch: cfg.epoch, prodIdx: cfg.prodIdx,
		commits: newStampLog(len(cfg.prodIdx)), tr: cfg.tr, liveJob: cfg.liveJob,
	}
	if cfg.liveRank > 0 {
		p.probe.started = make([]atomic.Int64, cfg.liveRank)
		p.probe.finished = make([]atomic.Int64, cfg.liveRank)
	}
	if cfg.durable {
		segment := filepath.Join(cfg.dir, "dsosd.stream")
		fw, err := sos.OpenFileWAL(segment)
		if err != nil {
			return hop{}, err
		}
		p.closers = append(p.closers, fw.Close)
		stream, err := streams.OpenStream(streams.StreamConfig{
			Name:      "dsosd-ingest",
			Subjects:  []string{tag},
			Retention: streams.RetentionPolicy{MaxMsgs: 100000},
			Clock:     obs.WallClock(),
		}, fw)
		if err != nil {
			return hop{}, err
		}
		if err := d.Bus().BindStream(stream); err != nil {
			return hop{}, err
		}
		cons, err := stream.Consumer(streams.ConsumerConfig{Name: "ingest"})
		if err != nil {
			return hop{}, err
		}
		p.dedup = ldms.NewDedupStore(p.probe)
		var st ldms.StorePlugin = p.dedup
		if cfg.tr != nil {
			st = &tracedStore{name: "ldms.dedup", inner: p.dedup, tr: cfg.tr}
		}
		p.ingest = startIngest(cons, st, cfg.tr)
		p.closers = append(p.closers, func() error { p.ingest.stop(); return nil })
		h.stream, h.segment = stream, segment
	} else {
		hd := d.AttachStore(tag, p.probe)
		p.closers = append(p.closers, func() error { hd.Close(); return nil })
	}
	srv, err := ldms.ListenTCP(d, "127.0.0.1:0")
	if err != nil {
		return hop{}, err
	}
	p.closers = append(p.closers, srv.Close)
	srv.Collect(p.reg, h.name)
	h.srv = srv
	return h, nil
}

// newAggregator builds one ldmsd level forwarding to parent. Best effort:
// `ldmsd -reconnect -batch 64 -spool-policy block -forward <parent>`.
// Durable: `ldmsd -stream <seg> -topo-role <role> -topo-parent <parent>`.
// The node level (the connector's daemon) needs no listener.
func (p *pipeline) newAggregator(cfg pipelineConfig, role, parent string) (hop, error) {
	tag := connector.DefaultTag
	d := ldms.NewDaemon("ldmsd", role)
	d.AttachStore(tag, &ldms.CountStore{})
	h := hop{name: role, daemon: d}
	if cfg.onDaemon != nil {
		cfg.onDaemon(role, d)
	}
	if cfg.durable {
		segment := filepath.Join(cfg.dir, role+".stream")
		fw, err := sos.OpenFileWAL(segment)
		if err != nil {
			return hop{}, err
		}
		p.closers = append(p.closers, fw.Close)
		stream, err := streams.OpenStream(streams.StreamConfig{
			Name:      "ldmsd",
			Subjects:  []string{tag},
			Retention: streams.RetentionPolicy{MaxMsgs: 100000},
			Clock:     obs.WallClock(),
		}, fw)
		if err != nil {
			return hop{}, err
		}
		if err := d.Bus().BindStream(stream); err != nil {
			return hop{}, err
		}
		up, err := ldms.NewStreamUplink(stream, ldms.UplinkConfig{Addr: parent, Consumer: "uplink"})
		if err != nil {
			return hop{}, err
		}
		p.closers = append(p.closers, up.Close)
		p.uplinks = append(p.uplinks, up)
		h.stream, h.segment = stream, segment
	} else {
		fwd, err := ldms.NewReconnectingForwarder(d, ldms.ForwarderConfig{
			Addr:      parent,
			Tag:       tag,
			SpoolSize: 1024,
			Overflow:  ldms.Block,
			Batch:     event.FlushPolicy{MaxRecords: 64},
		})
		if err != nil {
			return hop{}, err
		}
		p.closers = append(p.closers, fwd.Close)
		p.fwds = append(p.fwds, fwd)
	}
	if role != "node" {
		srv, err := ldms.ListenTCP(d, "127.0.0.1:0")
		if err != nil {
			return hop{}, err
		}
		p.closers = append(p.closers, srv.Close)
		srv.Collect(p.reg, role)
		h.srv = srv
	}
	return h, nil
}

// ingestLoop is dsosd's -stream ingest loop, mirrored from cmd/dsosd:
// Fetch(64), store each delivery through the DedupStore, Ack on success,
// Nak on failure, sleep 5ms when the stream is empty. The benchmark adds
// only a stop path and, in the traced run, spans around each call.
type ingestLoop struct {
	cons *streams.Consumer
	wg   sync.WaitGroup
	// Call accounting for the streams per-layer metrics.
	fetches, empty, acks atomic.Int64
	fetchNs, ackNs       atomic.Int64
}

func startIngest(cons *streams.Consumer, store ldms.StorePlugin, tr *tracer) *ingestLoop {
	l := &ingestLoop{cons: cons}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		for {
			t0 := time.Now()
			ds, err := cons.Fetch(64)
			l.fetchNs.Add(int64(time.Since(t0)))
			l.fetches.Add(1)
			if err != nil {
				return // consumer replaced or closed
			}
			if len(ds) == 0 {
				l.empty.Add(1)
				time.Sleep(5 * time.Millisecond)
				continue
			}
			tr.add("streams.fetch", t0, time.Now(), -1)
			for _, del := range ds {
				if serr := store.Store(del.Msg); serr != nil {
					_ = cons.Nak(del.Seq) // a failed Nak leaves the delivery to the ack deadline
					fmt.Fprintln(os.Stderr, "e2ebench: ingest:", serr)
					continue
				}
				a0 := time.Now()
				aerr := cons.Ack(del.Seq)
				a1 := time.Now()
				l.ackNs.Add(int64(a1.Sub(a0)))
				l.acks.Add(1)
				tr.add("streams.ack", a0, a1, -1)
				if aerr != nil {
					return
				}
			}
		}
	}()
	return l
}

func (l *ingestLoop) stop() {
	l.cons.Close()
	l.wg.Wait()
}
