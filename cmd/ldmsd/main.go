// ldmsd runs a real (non-simulated) LDMS daemon over TCP: it listens for
// stream messages, optionally stores them (CSV or counting), and optionally
// forwards them to a higher-level aggregator — one level of the paper's
// multi-hop topology:
//
//	connector -> node ldmsd -> head aggregator -> remote aggregator+store
//
// Usage:
//
//	ldmsd -listen :4411 [-producer nid00040] [-tag darshanConnector]
//	      [-forward host:4412] [-store-csv out.csv]
//	      [-samplers meminfo,vmstat] [-sample-interval 1s]
//	      [-reconnect] [-spool 1024] [-spool-policy drop-oldest]
//	      [-heartbeat 5s] [-seed 42]
//	      [-batch 32] [-batch-bytes 262144] [-batch-age 5ms]
//	      [-stream ldmsd.stream] [-stream-subjects 'darshan.>']
//	      [-stream-max-msgs 100000] [-stream-max-bytes 0] [-stream-max-age 0]
//	      [-stream-consumer uplink]
//	      [-topo-role node|l1|l2] [-topo-parent host:4412] [-topo-standby host:4413]
//
// -seed pins the sampler RNG so fault campaigns against a real daemon are
// reproducible; with -seed 0 (the default) the seed derives from the wall
// clock and is printed so a run can be replayed after the fact.
//
// By default forwarding is best-effort like LDMS Streams: if the upstream
// aggregator dies, messages are dropped silently. -reconnect switches the
// uplink to a ReconnectingForwarder that spools undelivered messages and
// redials with backoff; -heartbeat adds liveness probes on the link. The
// resilient uplink always writes batch frames (typed records cross the
// wire in compact binary, never as JSON); -batch/-batch-bytes/-batch-age
// set the count, byte and linger-age flush bounds, and with none of them
// each message goes out as a batch frame of one.
//
// -stream upgrades the daemon to durable streaming: every handled message
// whose subject matches -stream-subjects (comma list, wildcards allowed;
// default the -tag) is appended to a CRC-framed segment file before
// best-effort fan-out, retained under the -stream-max-* bounds, and — when
// -forward is also set — shipped upstream by a consumer-acked uplink: each
// fetch round goes out as one batch frame and is acked once that frame is
// flushed to the local socket. The durable cursor (named by
// -stream-consumer) resumes exactly where the previous incarnation's acks
// stopped, so a restart of either end costs redelivery of what was never
// acked. An ack does not yet mean stored: a frame flushed into a
// connection that dies before the peer reads it is acked but lost.
// -stream supersedes -reconnect for the uplink (the stream is the spool).
//
// -topo-role places the daemon in the explicit aggregation tree of the
// scale-out control plane: node (leaf), l1 or l2 (aggregation levels).
// The role requires -stream (the durable cursor is what lets failover keep
// the ack floor) and -topo-parent, and conflicts with -forward. The uplink
// is the same stream uplink as -forward; with -topo-standby it switches to
// the other address after three consecutive failed dials of the active
// one, in either direction, keeping its one durable consumer — the ack
// floor survives the switch, so re-homing costs redelivery, never a
// rewound cursor. Validation is strict: an inconsistent -topo flag set is
// a startup error, never a silent default.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"darshanldms/internal/connector"
	"darshanldms/internal/event"
	"darshanldms/internal/ldms"
	"darshanldms/internal/obs"
	"darshanldms/internal/rng"
	"darshanldms/internal/sos"
	"darshanldms/internal/streams"
	"darshanldms/internal/topo"
)

func main() {
	listen := flag.String("listen", ":4411", "TCP listen address")
	httpAddr := flag.String("http", "", "telemetry HTTP address serving /metrics and /healthz (empty disables)")
	producer := flag.String("producer", hostnameOr("ldmsd"), "producer name")
	tag := flag.String("tag", connector.DefaultTag, "stream tag to handle")
	forward := flag.String("forward", "", "upstream aggregator address (optional)")
	storeCSV := flag.String("store-csv", "", "store messages as CSV to this file (optional)")
	statsEvery := flag.Duration("stats", 10*time.Second, "stats reporting interval")
	samplers := flag.String("samplers", "", "comma list of sampler plugins to run: meminfo,vmstat")
	sampleEvery := flag.Duration("sample-interval", time.Second, "sampler interval")
	reconnect := flag.Bool("reconnect", false, "resilient forwarding: spool + redial with backoff instead of best-effort")
	spoolSize := flag.Int("spool", 1024, "reconnect spool size in messages")
	spoolPolicy := flag.String("spool-policy", "drop-oldest", "spool overflow policy: drop-oldest, drop-newest or block")
	heartbeat := flag.Duration("heartbeat", 0, "liveness probe interval on the reconnect uplink (0 = off)")
	batchRecords := flag.Int("batch", 0, "max records per batched uplink frame (0 = one message per frame; needs -reconnect)")
	batchBytes := flag.Int("batch-bytes", 0, "max payload bytes per batched uplink frame (0 = unbounded)")
	batchAge := flag.Duration("batch-age", 0, "max linger before a partial batch is flushed (0 = no linger)")
	seed := flag.Uint64("seed", 0, "sampler RNG seed; 0 derives one from the wall clock (nonreproducible)")
	streamPath := flag.String("stream", "", "durable stream segment file; enables persistent, replayable streaming (empty = off)")
	streamSubjects := flag.String("stream-subjects", "", "comma list of subject filters the stream captures (wildcards allowed; default the -tag)")
	streamMaxMsgs := flag.Int("stream-max-msgs", 100000, "stream retention: max retained messages (0 = unbounded)")
	streamMaxBytes := flag.Int64("stream-max-bytes", 0, "stream retention: max retained payload bytes (0 = unbounded)")
	streamMaxAge := flag.Duration("stream-max-age", 0, "stream retention: max retained message age (0 = unbounded)")
	streamConsumer := flag.String("stream-consumer", "uplink", "durable consumer name for the stream uplink cursor")
	topoRole := flag.String("topo-role", "", "aggregation-tree role: node, l1 or l2 (empty = no topology plane)")
	topoParent := flag.String("topo-parent", "", "upstream daemon address for the -topo-role (replaces -forward)")
	topoStandby := flag.String("topo-standby", "", "failover upstream address; switched to after three failed dials of the parent")
	flag.Parse()

	// Topology flags are validated strictly: a bad combination is a
	// startup error, never a silent default — a daemon that ignores its
	// topology flags looks healthy while sitting outside the tree.
	topoCfg := topo.Config{Role: *topoRole, Parent: *topoParent, Standby: *topoStandby}
	if err := topoCfg.Validate(); err != nil {
		fatal(err)
	}
	if topoCfg.Enabled() {
		if topoCfg.Role == topo.RoleStoreName {
			fatal(fmt.Errorf("topo: role %q belongs to dsosd, not ldmsd", topoCfg.Role))
		}
		if *forward != "" {
			fatal(fmt.Errorf("topo: -topo-parent and -forward both set; the topology plane owns the uplink"))
		}
		if *streamPath == "" {
			fatal(fmt.Errorf("topo: role %q needs -stream; failover without a durable cursor would lose the ack floor", topoCfg.Role))
		}
	}

	d := ldms.NewDaemon("ldmsd", *producer)
	count := &ldms.CountStore{}
	d.AttachStore(*tag, count)

	var stream *streams.DurableStream
	if *streamPath != "" {
		subjects := []string{*tag}
		if *streamSubjects != "" {
			subjects = subjects[:0]
			for _, s := range strings.Split(*streamSubjects, ",") {
				if s = strings.TrimSpace(s); s != "" {
					subjects = append(subjects, s)
				}
			}
		}
		wal, err := sos.OpenFileWAL(*streamPath)
		if err != nil {
			fatal(err)
		}
		defer wal.Close()
		stream, err = streams.OpenStream(streams.StreamConfig{
			Name:     "ldmsd",
			Subjects: subjects,
			Retention: streams.RetentionPolicy{
				MaxMsgs:  *streamMaxMsgs,
				MaxBytes: *streamMaxBytes,
				MaxAge:   *streamMaxAge,
			},
			Clock: obs.WallClock(),
		}, wal)
		if err != nil {
			fatal(err)
		}
		if err := d.Bus().BindStream(stream); err != nil {
			fatal(err)
		}
		st := stream.Stats()
		fmt.Fprintf(os.Stderr, "ldmsd: durable stream %s (subjects %s): recovered seqs [%d,%d], %d retained, %d dropped\n",
			*streamPath, strings.Join(subjects, ","), st.FirstSeq, st.LastSeq, st.Msgs, st.Dropped)
	}

	if *samplers != "" {
		// An explicit -seed makes real-daemon fault campaigns reproducible:
		// the same seed yields the same sampler noise across runs.
		if *seed == 0 {
			*seed = uint64(time.Now().UnixNano()) //lint:allow walltime -seed 0 explicitly opts into a wall-clock seed
			fmt.Fprintf(os.Stderr, "ldmsd: sampler seed %d (pass -seed %d to reproduce)\n", *seed, *seed)
		}
		r := rng.New(*seed)
		for _, name := range strings.Split(*samplers, ",") {
			switch strings.TrimSpace(name) {
			case "meminfo":
				d.AddSampler(ldms.NewMeminfoSampler(64<<20, r.Derive("meminfo")))
			case "vmstat":
				d.AddSampler(ldms.NewVMStatSampler(r.Derive("vmstat")))
			case "":
			default:
				fatal(fmt.Errorf("unknown sampler %q", name))
			}
		}
		start := time.Now() //lint:allow walltime real daemon: samplers run in wall time
		go func() {
			tick := time.NewTicker(*sampleEvery) //lint:allow walltime real daemon: sampling cadence is wall time
			defer tick.Stop()
			for range tick.C {
				d.SampleOnce(time.Since(start)) //lint:allow walltime real daemon: metric timestamps are wall time
			}
		}()
		fmt.Fprintf(os.Stderr, "ldmsd: sampling %s every %s\n", *samplers, *sampleEvery)
	}

	var csv *ldms.CSVStore
	if *storeCSV != "" {
		f, err := os.Create(*storeCSV)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		csv = ldms.NewCSVStore(f)
		d.AttachStore(*tag, csv)
	}
	var fwd *ldms.ReconnectingForwarder
	var uplink *ldms.TCPClient
	var streamUp *ldms.StreamUplink
	parent := *forward
	if topoCfg.Enabled() {
		parent = topoCfg.Parent
	}
	switch {
	case stream != nil && parent != "":
		var err error
		streamUp, err = ldms.NewStreamUplink(stream, ldms.UplinkConfig{
			Addr:     parent,
			Standby:  topoCfg.Standby,
			Consumer: *streamConsumer,
		})
		if err != nil {
			fatal(err)
		}
		defer streamUp.Close()
		fmt.Fprintf(os.Stderr, "ldmsd: stream uplink to %s (standby %q, consumer %q, floor %d)\n",
			parent, topoCfg.Standby, *streamConsumer, streamUp.Stats().Consumer.AckFloor)
	case *forward != "" && *reconnect:
		policy, err := ldms.ParseOverflowPolicy(*spoolPolicy)
		if err != nil {
			fatal(err)
		}
		batch := event.FlushPolicy{
			MaxRecords: *batchRecords,
			MaxBytes:   *batchBytes,
			MaxAge:     *batchAge,
		}
		fwd, err = ldms.NewReconnectingForwarder(d, ldms.ForwarderConfig{
			Addr:           *forward,
			Tag:            *tag,
			SpoolSize:      *spoolSize,
			Overflow:       policy,
			HeartbeatEvery: *heartbeat,
			Batch:          batch,
		})
		if err != nil {
			fatal(err)
		}
		defer fwd.Close()
		fmt.Fprintf(os.Stderr, "ldmsd: resilient forwarding tag %q to %s (spool %d, %s)\n",
			*tag, *forward, *spoolSize, policy)
		if batch.Enabled() {
			fmt.Fprintf(os.Stderr, "ldmsd: batching uplink frames (max %d records, %d bytes, linger %s)\n",
				*batchRecords, *batchBytes, *batchAge)
		}
	case *forward != "":
		client, err := ldms.DialTCP(*forward)
		if err != nil {
			fatal(err)
		}
		defer client.Close()
		ldms.ForwardTCP(d, *tag, client)
		uplink = client
		fmt.Fprintf(os.Stderr, "ldmsd: forwarding tag %q to %s\n", *tag, *forward)
	}

	srv, err := ldms.ListenTCP(d, *listen)
	if err != nil {
		fatal(err)
	}
	defer srv.Close()
	fmt.Fprintf(os.Stderr, "ldmsd: %s listening on %s (tag %q)\n", *producer, srv.Addr(), *tag)

	if *httpAddr != "" {
		reg := obs.NewRegistry()
		clock := obs.WallClock()
		d.Bus().Instrument("ldmsd", clock)
		d.Bus().Collect(reg, "ldmsd")
		srv.Instrument("tcp:ldmsd", clock)
		srv.Collect(reg, "ldmsd")
		ldms.CollectPools(reg)
		reg.RegisterCollector(func(emit func(string, float64)) {
			emit("dlc_store_count_messages_total", float64(count.Count()))
			emit("dlc_store_count_bytes_total", float64(count.Bytes()))
		})
		health := obs.NewHealth()
		if fwd != nil {
			fwd.Collect(reg, "uplink")
			health.Register("spool", fwd.SpoolHealth())
		}
		if uplink != nil {
			uplink.Collect(reg, "uplink")
		}
		if streamUp != nil {
			streamUp.Collect(reg, "uplink")
		}
		if stream != nil {
			stream.Collect(reg)
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", obs.Handler(reg))
		mux.Handle("/healthz", health.Handler())
		go func() {
			fmt.Fprintf(os.Stderr, "ldmsd: telemetry on %s (/metrics, /healthz)\n", *httpAddr)
			if err := http.ListenAndServe(*httpAddr, mux); err != nil {
				fmt.Fprintln(os.Stderr, "ldmsd: http:", err)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	tick := time.NewTicker(*statsEvery) //lint:allow walltime real daemon: stats reporting is wall time
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			line := fmt.Sprintf("ldmsd: received=%d stored-bytes=%d metric-sets=%d", srv.Received(), count.Bytes(), len(d.Sets()))
			if fwd != nil {
				st := fwd.Stats()
				line += fmt.Sprintf(" fwd-sent=%d fwd-spool=%d fwd-dropped=%d fwd-reconnects=%d connected=%v",
					st.Sent, st.SpoolDepth, st.Dropped, st.Reconnects, st.Connected)
			}
			if streamUp != nil {
				st := streamUp.Stats()
				line += fmt.Sprintf(" stream-sent=%d stream-lag=%d stream-floor=%d connected=%v active=%s switches=%d",
					st.Sent, st.Consumer.Lag, st.Consumer.AckFloor, st.Connected, st.Active, st.Switches)
			} else if stream != nil {
				st := stream.Stats()
				line += fmt.Sprintf(" stream-msgs=%d stream-dropped=%d", st.Msgs, st.Dropped)
			}
			fmt.Fprintln(os.Stderr, line)
		case <-sig:
			if csv != nil {
				_ = csv.Flush()
			}
			if fwd != nil {
				// Give the spool a chance to drain before exiting.
				_ = fwd.Flush(5 * time.Second)
			}
			if streamUp != nil {
				// Best effort: whatever is not acked resumes next start.
				_ = streamUp.Flush(5 * time.Second)
			}
			fmt.Fprintf(os.Stderr, "ldmsd: shutting down after %d messages\n", srv.Received())
			return
		}
	}
}

func hostnameOr(def string) string {
	if h, err := os.Hostname(); err == nil && h != "" {
		return h
	}
	return def
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ldmsd:", err)
	os.Exit(1)
}
