package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"darshanldms/internal/connector"
	"darshanldms/internal/darshan"
	"darshanldms/internal/dsos"
	"darshanldms/internal/ldms"
	"darshanldms/internal/rng"
	"darshanldms/internal/sos"
	"darshanldms/internal/streams"
)

// workload is one benchmark configuration: a topology, the job the
// connector publishes, optional finished jobs preloaded into the store,
// and the rates that size its phases.
type workload struct {
	name    string
	durable bool
	shards  int
	live    jobShape
	preload []jobShape
	// burstRate is the nominal burst throughput (events/s) that sizes
	// the bursts; the measured rate is the metric.
	burstRate float64
	// rate is the open-loop fixed-rate phase's events per second: a
	// quarter to a third of the workload's burst rate on a 2-CPU host, so
	// the pipeline keeps a flat backlog through a garbage collection.
	rate float64
	// queries runs the closed-loop query client during the fixed phase.
	queries bool
	// rounds is how many independent rounds an untraced run makes. Each
	// round sets the pipeline up from scratch, runs its phases, checks
	// the store and tears down, so memory stays bounded; the metrics
	// combine the rounds (see endToEnd).
	rounds int
}

// Phase sizing: of a run's --seconds, burstShare is published in bursts
// (at the nominal burst rate) and fixedShare is spent in the fixed-rate
// phase, spread over the rounds; each round makes one burst.
const (
	burstShare   = 0.25
	fixedShare   = 0.6
	warmupEvents = 2000
)

// The live jobs: a shared-file N-1 checkpoint from 16 nodes x 64 ranks
// (strings repeat, so the interner and box caches hit), and a
// file-per-process job whose file names outnumber the interner bound.
var (
	checkpointJob = jobShape{job: 1001, producers: 16, ranks: 64, steps: 30, stepTime: 50 * time.Millisecond}
	perProcessJob = jobShape{job: 2001, producers: 4, ranks: 64, steps: 160, perProcess: true, stepTime: 50 * time.Millisecond, producerBase: 100}
)

// finishedJobs are query-under-ingest's preloaded jobs: file-per-process,
// 1 s steps, so one 10-second window holds a fifth of a job.
func finishedJobs() []jobShape {
	var jobs []jobShape
	for j := 0; j < 6; j++ {
		jobs = append(jobs, jobShape{
			job: int64(3001 + j), producers: 2, ranks: 64, steps: 48,
			perProcess: true, stepTime: time.Second, producerBase: 200 + 2*j,
		})
	}
	return jobs
}

var workloads = []workload{
	{name: "besteffort-tree", shards: 1, live: checkpointJob,
		burstRate: 130000, rate: 40000, rounds: 12},
	{name: "durable-tree", durable: true, shards: 2, live: checkpointJob,
		burstRate: 25000, rate: 5000, rounds: 12},
	{name: "query-under-ingest", shards: 2, live: perProcessJob, preload: finishedJobs(),
		burstRate: 80000, rate: 20000, queries: true, rounds: 8},
}

// phaseSizes returns one round's burst size and fixed-phase length.
func (wl workload) phaseSizes(seconds float64, rounds int) (burstN int, fixed time.Duration) {
	burstN = int(math.Round(wl.burstRate * seconds * burstShare / float64(rounds)))
	fixed = time.Duration(seconds * fixedShare / float64(rounds) * float64(time.Second))
	return max(burstN, 1), fixed
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Latency limits: a lost event or a failed or wrong query counts as
// this late.
const (
	freshnessLimitMs = 10000.0
	queryLimitMs     = 1000.0
	drainTimeout     = 60 * time.Second
)

// ident is one published event's delivery identity and due time.
type ident struct {
	prod int32
	seq  uint64
	due  int64 // ns since the run epoch
}

// jobRef is the reference content of one job for the correctness gate.
type jobRef struct {
	job      int64
	rows     int
	hash     uint64
	rankRows []int
	ts       []float64 // sorted row timestamps (window queries)
}

// runner drives one round of a workload: set-up, phases, gate.
type runner struct {
	wl       workload
	seed     uint64
	traced   bool
	dir      string
	epoch    time.Time
	burstN   int
	fixedDur time.Duration
	// wrapStore is passed to the pipeline (see pipelineConfig).
	wrapStore func(ldms.StorePlugin) ldms.StorePlugin

	gen     *eventStream
	prodIdx map[string]int
	seqs    seqTracker
	pipe    *pipeline
	tr      *tracer
	hopLogs []*stampLog // traced run: bus arrival per hop
	preRefs []jobRef

	published int
	fixedIDs  []ident
	evbuf     []darshan.Event

	setupS      float64
	burstPhases []float64 // seconds
	burstCPUS   float64   // process CPU seconds over all bursts
	pubNs       int64
	pubCalls    int64
	onEventNs   []float64 // traced: per-call OnEvent time
	genLagMax   time.Duration
	fixedS      float64

	queryLat    []float64 // ms; a failed query is queryLimitMs
	queryFailed int
	queryRows   int64
	queryNs     int64
	queryN      int     // samples behind the query percentiles
	querySpan   float64 // seconds of query activity
	iterNsRow   float64

	memPeak  uint64          // live heap after a full GC, highest phase boundary
	lagMax   []atomic.Uint64 // per hop stream consumer lag
	spoolMax atomic.Int64

	// Traced-run figures.
	untracedEPS, tracedEPS float64
	allocsPerEvent         float64
	gcCPUFrac              float64
	storeBusyFrac          float64

	notes []string

	// The round's figures, taken before its pipeline closes.
	layer  []metric  // traced run
	sample e2eSample // untraced run
}

// setup wires the workload from scratch — event generation, daemons,
// files and preload — and times it.
func (r *runner) setup() error {
	runtime.GC()
	t0 := time.Now()
	if err := r.wire(); err != nil {
		return err
	}
	r.setupS = time.Since(t0).Seconds()
	return nil
}

func (r *runner) wire() error {
	dir := r.dir
	r.epoch = time.Now()
	r.gen = newEventStream(r.seed, r.wl.live)
	r.prodIdx = map[string]int{}
	for i, p := range r.gen.producers {
		r.prodIdx[p] = i
	}
	r.seqs = make(seqTracker, len(r.gen.producers))
	r.tr = nil
	if r.traced {
		r.tr = newTracer(r.epoch)
	}
	// In the traced run a timing handler on each daemon's bus records
	// when every event reached that hop.
	r.hopLogs = nil
	var onDaemon func(string, *ldms.Daemon)
	if r.traced {
		logs := map[string]*stampLog{}
		for _, name := range hopNames {
			logs[name] = newStampLog(len(r.prodIdx))
			r.hopLogs = append(r.hopLogs, logs[name])
		}
		tr, idx, epoch := r.tr, r.prodIdx, r.epoch
		onDaemon = func(name string, d *ldms.Daemon) {
			log := logs[name]
			d.Bus().Subscribe(connector.DefaultTag, func(m streams.Message) {
				if tr.active() {
					if i, ok := idx[m.Producer]; ok {
						log.mark(i, m.Seq, int64(time.Since(epoch)))
					}
				}
			})
		}
	}
	liveRanks := 0
	if r.wl.queries {
		liveRanks = r.wl.live.producers * r.wl.live.ranks
	}
	p, err := newPipeline(pipelineConfig{
		durable: r.wl.durable, shards: r.wl.shards, dir: dir, epoch: r.epoch,
		prodIdx: r.prodIdx, liveJob: r.wl.live.job, liveRank: liveRanks,
		meta: r.gen.meta, tr: r.tr, wrapStore: r.wrapStore, onDaemon: onDaemon,
	})
	if err != nil {
		return err
	}
	r.pipe = p
	r.lagMax = make([]atomic.Uint64, len(p.hops))
	r.preRefs = nil
	for _, shape := range r.wl.preload {
		ref, err := preloadJob(p.client, newEventStream(r.seed, shape))
		if err != nil {
			return err
		}
		r.preRefs = append(r.preRefs, ref)
	}
	return nil
}

// preloadJob stores one cycle of a finished job straight into the
// shards and returns its reference content.
func preloadJob(cl *dsos.Client, s *eventStream) (jobRef, error) {
	ref := jobRef{job: s.shape.job, rankRows: make([]int, s.shape.producers*s.shape.ranks)}
	var rows []sos.Object
	for i := range s.tmpl {
		rows = s.rows(i, rows[:0])
		if err := cl.InsertBatch(dsos.DarshanSchemaName, rows); err != nil {
			return ref, err
		}
		for _, o := range rows {
			ref.add(o)
		}
	}
	sort.Float64s(ref.ts)
	return ref, nil
}

func (ref *jobRef) add(o sos.Object) {
	ref.rows++
	ref.hash += rowHash(o)
	ref.rankRows[o[dsos.ColRank].(int64)]++
	ref.ts = append(ref.ts, o[dsos.ColSegTimestamp].(float64))
}

// next generates the next event into ev and returns its identity.
func (r *runner) next(ev *darshan.Event) ident {
	prod := r.gen.at(r.published, ev)
	r.published++
	return ident{prod: int32(prod), seq: r.seqs.next(prod)}
}

// publishBurst publishes n events as fast as the pipeline accepts them.
func (r *runner) publishBurst(n int) {
	var ev darshan.Event
	for k := 0; k < n; k++ {
		id := r.next(&ev)
		if r.tr.active() {
			t0 := time.Now()
			r.pipe.conn.OnEvent(nil, &ev)
			r.tr.addID("connector.on_event", t0, time.Now(), -1, ev.Producer, id.seq)
			continue
		}
		r.pipe.conn.OnEvent(nil, &ev)
	}
}

// waitStored waits until the store has committed target messages; it
// reports false after drainTimeout (the shortfall is lost).
func (r *runner) waitStored(target int64) bool {
	deadline := time.Now().Add(drainTimeout)
	for r.pipe.probe.stored.Load() < target {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// burst measures one burst and returns its events per second from the
// first publish until the last row is stored; the burst's process CPU
// time accumulates in r.burstCPUS. Callers collect the heap first.
func (r *runner) burst(n int) float64 {
	target := r.pipe.probe.stored.Load() + int64(n)
	cpu0 := cpuSeconds()
	t0 := time.Now()
	r.publishBurst(n)
	if !r.waitStored(target) {
		r.notes = append(r.notes, fmt.Sprintf("burst of %d did not drain", n))
	}
	end := r.epoch.Add(time.Duration(r.pipe.probe.last.Load()))
	cpu := cpuSeconds() - cpu0
	secs := end.Sub(t0).Seconds()
	r.burstPhases = append(r.burstPhases, secs)
	r.burstCPUS += cpu
	return float64(n) / secs
}

// fixedPhase publishes at rate events/s for dur, open loop: each event
// has a due time, and a late generator publishes the overdue events at
// once rather than shifting the schedule.
func (r *runner) fixedPhase(rate float64, dur time.Duration) {
	n := int(rate * dur.Seconds())
	start := time.Now()
	startNs := int64(start.Sub(r.epoch))
	dueAt := func(i int) time.Duration { return time.Duration(float64(i) / rate * 1e9) }
	for i := 0; i < n; {
		el := time.Since(start)
		due := min(int(el.Seconds()*rate)+1, n)
		if due <= i {
			time.Sleep(dueAt(i) - el)
			continue
		}
		if lag := el - dueAt(i); lag > r.genLagMax {
			r.genLagMax = lag
		}
		r.evbuf = r.evbuf[:0]
		for j := i; j < due; j++ {
			r.evbuf = append(r.evbuf, darshan.Event{})
			id := r.next(&r.evbuf[len(r.evbuf)-1])
			id.due = startNs + int64(dueAt(j))
			r.fixedIDs = append(r.fixedIDs, id)
		}
		if r.tr.active() {
			for k := range r.evbuf {
				t0 := time.Now()
				r.pipe.conn.OnEvent(nil, &r.evbuf[k])
				d := time.Since(t0)
				r.pubNs += int64(d)
				r.onEventNs = append(r.onEventNs, float64(d))
				id := r.fixedIDs[len(r.fixedIDs)-len(r.evbuf)+k]
				r.tr.addID("connector.on_event", t0, t0.Add(d), -1, r.evbuf[k].Producer, id.seq)
			}
		} else {
			t0 := time.Now()
			for k := range r.evbuf {
				r.pipe.conn.OnEvent(nil, &r.evbuf[k])
			}
			r.pubNs += int64(time.Since(t0))
		}
		r.pubCalls += int64(len(r.evbuf))
		i = due
	}
	r.fixedS = time.Since(start).Seconds()
}

// sampler polls, for the traced run, the consumer lag of every hop's
// stream and the forwarders' spool depth, until stop.
func (r *runner) sampler(stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		r.sampleOnce()
		select {
		case <-stop:
			return
		case <-tick.C:
		}
	}
}

func (r *runner) sampleOnce() {
	for i, h := range r.pipe.hops {
		if h.stream == nil {
			continue
		}
		for _, cs := range h.stream.ConsumerStats() {
			if cs.Lag > r.lagMax[i].Load() {
				r.lagMax[i].Store(cs.Lag)
			}
		}
	}
	for _, f := range r.pipe.fwds {
		if d := int64(f.Stats().SpoolDepth); d > r.spoolMax.Load() {
			r.spoolMax.Store(d)
		}
	}
}

// execute runs the measured phases after set-up.
func (r *runner) execute() error {
	if r.traced {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go r.sampler(stop, &wg)
		defer func() {
			close(stop)
			wg.Wait()
			r.sampleOnce()
		}()
	}

	// Warm-up: dial every hop, fill the caches; not measured.
	r.publishBurst(warmupEvents)
	if !r.waitStored(int64(r.published)) {
		return fmt.Errorf("warm-up did not drain")
	}
	n := r.burstN
	if r.traced {
		// One untraced burst for the overhead base and the runtime
		// counters, then a traced burst and a traced fixed phase.
		r.fullGC()
		m0 := readRuntime()
		r.untracedEPS = r.burst(n)
		m1 := readRuntime()
		r.allocsPerEvent = (m1.allocs - m0.allocs) / float64(n)
		if d := m1.cpuTotal - m0.cpuTotal; d > 0 {
			r.gcCPUFrac = (m1.cpuGC - m0.cpuGC) / d
		}
		r.fullGC()
		r.tr.enable(true)
		busy0 := r.pipe.probe.busyNs.Load()
		r.tracedEPS = r.burst(n)
		r.storeBusyFrac = float64(r.pipe.probe.busyNs.Load()-busy0) / 1e9 / r.burstPhases[len(r.burstPhases)-1]
		r.fixed()
	} else {
		// The fixed phase runs after the burst, on a heap that already
		// holds the burst's rows, as a running store does. On a near-empty
		// heap the collector runs back to back and the tail flips between
		// rounds.
		r.fullGC()
		r.burst(n)
		r.fixed()
	}
	r.tr.enable(false)
	r.fullGC()
	return nil
}

// fixed runs the fixed-rate phase, with the query client beside it on
// the query workload, and waits for the pipeline to drain.
func (r *runner) fixed() {
	var qwg sync.WaitGroup
	qstop := make(chan struct{})
	r.fullGC()
	if r.wl.queries {
		qwg.Add(1)
		go r.queryClient(qstop, &qwg)
	}
	r.fixedPhase(r.wl.rate, r.fixedDur)
	close(qstop)
	qwg.Wait()
	if !r.waitStored(int64(r.published)) {
		r.notes = append(r.notes, "fixed phase did not drain")
	}
}

// queryClient is the closed-loop reader: it cycles through the paper's
// run-time queries and checks each result against the reference.
func (r *runner) queryClient(stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	rnd := rng.New(r.seed).Derive("queries")
	liveRanks := r.wl.live.producers * r.wl.live.ranks
	start := time.Now()
	for k := 0; ; k++ {
		select {
		case <-stop:
			r.querySpan = time.Since(start).Seconds()
			return
		default:
		}
		var from, to sos.Key
		index := "job_rank_time"
		var check func(got int) bool
		switch k % 3 {
		case 0: // one rank of a finished job (Figs 7-8)
			ref := &r.preRefs[rnd.Intn(len(r.preRefs))]
			rank := rnd.Intn(len(ref.rankRows))
			from, to = sos.Key{ref.job, int64(rank)}, sos.Key{ref.job, int64(rank + 1)}
			want := ref.rankRows[rank]
			check = func(got int) bool { return got == want }
		case 1: // a 10-second window of one finished job (Fig 9)
			ref := &r.preRefs[rnd.Intn(len(r.preRefs))]
			lo := ref.ts[0] + rnd.Float64()*(ref.ts[len(ref.ts)-1]-ref.ts[0]-10)
			index = "job_time_rank"
			from, to = sos.Key{ref.job, lo}, sos.Key{ref.job, lo + 10}
			want := sort.SearchFloat64s(ref.ts, lo+10) - sort.SearchFloat64s(ref.ts, lo)
			check = func(got int) bool { return got == want }
		default: // one rank of the live job, rows inserted moments ago
			rank := rnd.Intn(liveRanks)
			job := r.wl.live.job
			from, to = sos.Key{job, int64(rank)}, sos.Key{job, int64(rank + 1)}
			lo := r.pipe.probe.finished[rank].Load()
			check = func(got int) bool {
				return int64(got) >= lo && int64(got) <= r.pipe.probe.started[rank].Load()
			}
		}
		t0 := time.Now()
		objs, err := r.pipe.query(index, from, to)
		d := time.Since(t0)
		if err != nil || !check(len(objs)) {
			r.queryFailed++
			r.queryLat = append(r.queryLat, queryLimitMs)
			continue
		}
		r.queryLat = append(r.queryLat, float64(d)/1e6)
		r.queryRows += int64(len(objs))
		r.queryNs += int64(d)
	}
}

// cpuSeconds is the process's user+sys CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runtimeSample is a reading of the Go runtime's cumulative counters.
type runtimeSample struct {
	allocs, cpuGC, cpuTotal float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocs: val(0), cpuGC: val(1), cpuTotal: val(2)}
}

// fullGC starts every measured phase from the same collector state: a
// phase then measures the pipeline, not where it fell in the GC cycle.
// The live heap a full collection finds is the memory figure, read at
// every phase boundary.
func (r *runner) fullGC() {
	runtime.GC()
	r.memPeak = max(r.memPeak, heapLiveBytes())
}

// heapLiveBytes is the heap the last GC found live.
func heapLiveBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// rowHash is an order-independent digest term for one stored row.
func rowHash(o sos.Object) uint64 {
	h := uint64(14695981039346656037)
	mix := func(b byte) { h = (h ^ uint64(b)) * 1099511628211 }
	mix64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			mix(byte(v >> (8 * i)))
		}
	}
	for _, v := range o {
		switch x := v.(type) {
		case string:
			mix(1)
			for i := 0; i < len(x); i++ {
				mix(x[i])
			}
		case int64:
			mix(2)
			mix64(uint64(x))
		case uint64:
			mix(3)
			mix64(x)
		case float64:
			mix(4)
			mix64(math.Float64bits(x))
		default:
			mix(5)
			for _, c := range fmt.Sprint(x) {
				mix(byte(c))
			}
		}
	}
	return h
}
