package main

import (
	"strings"

	"darshanldms/internal/dsos"
	"darshanldms/internal/ldms"
)

// freshness returns the age in ms at store commit of every fixed-phase
// event, measured from its due time; a lost event counts as
// freshnessLimitMs.
func (r *runner) freshness() []float64 {
	return r.hopAges(r.pipe.probe.commits)
}

// hopAges returns the age in ms at which every fixed-phase event crossed
// the point log recorded.
func (r *runner) hopAges(log *stampLog) []float64 {
	ages := make([]float64, 0, len(r.fixedIDs))
	for _, id := range r.fixedIDs {
		at, n := log.get(int(id.prod), id.seq)
		if n == 0 {
			ages = append(ages, freshnessLimitMs)
			continue
		}
		ages = append(ages, float64(at-id.due)/1e6)
	}
	return ages
}

// queryFigures returns the query latencies, rows and time behind the
// query metrics: the closed-loop client on query-under-ingest, the
// gate's per-rank read-back on the tree workloads. It records the sample
// count in r.queryN for the provenance line.
func (r *runner) queryFigures(g *gateResult) (lat []float64, rows, ns int64, secs float64) {
	if r.wl.queries {
		lat, rows, ns, secs = append([]float64(nil), r.queryLat...), r.queryRows, r.queryNs, r.querySpan
	} else {
		lat, rows, ns, secs = append([]float64(nil), g.rankLat...), g.rankRow, g.rankNs, float64(g.rankNs)/1e9
	}
	r.queryN = len(lat)
	return lat, rows, ns, secs
}

// e2eSample is what one untraced round contributes to the end-to-end
// metrics.
type e2eSample struct {
	burstEvents         int
	burstSecs, burstCPU float64
	ages                []float64 // fixed-phase ages at store commit, ms
	pubNs, pubCalls     int64
	queryLat            []float64 // ms
	querySecs           float64
	readBack            bool // the query figures are the gate's read-back
	memPeak             uint64
	setupS              float64
}

func (r *runner) e2eSample(g *gateResult) e2eSample {
	lat, _, _, secs := r.queryFigures(g)
	s := e2eSample{
		burstEvents: r.burstN, burstCPU: r.burstCPUS,
		ages:  r.freshness(),
		pubNs: r.pubNs, pubCalls: r.pubCalls,
		queryLat: lat, querySecs: secs, readBack: !r.wl.queries,
		memPeak: r.memPeak, setupS: r.setupS,
	}
	for _, b := range r.burstPhases {
		s.burstSecs += b
	}
	return s
}

// metrics computes one round's end-to-end metrics.
func (s e2eSample) metrics() []metric {
	qps := 0.0
	if s.querySecs > 0 {
		qps = float64(len(s.queryLat)) / s.querySecs
	}
	ages := append([]float64(nil), s.ages...)
	lat := append([]float64(nil), s.queryLat...)
	return []metric{
		{"ingest_eps", "events/s", float64(s.burstEvents) / s.burstSecs},
		{"freshness_p50_ms", "ms", percentile(ages, 0.50)},
		{"freshness_p99_ms", "ms", percentile(ages, 0.99)},
		{"app_publish_mean_ns", "ns", float64(s.pubNs) / float64(max(s.pubCalls, 1))},
		{"query_p50_ms", "ms", percentile(lat, 0.50)},
		{"query_p99_ms", "ms", percentile(lat, 0.99)},
		{"query_qps", "1/s", qps},
		{"cpu_s_per_mevent", "s", s.burstCPU / float64(s.burstEvents) * 1e6},
		{"mem_peak_mb", "MiB", float64(s.memPeak) / (1 << 20)},
		{"setup_s", "s", s.setupS},
	}
}

// endToEnd combines the rounds. Burst throughput and CPU pool the
// bursts (events over seconds, CPU over events): on the durable tree a
// burst either hits a transport stall or not, and pooling weighs the
// stalls at their share where a median would flip between the two
// modes. On the trees the query figures come from readBackBest. Every
// other metric is the median over rounds, which a minority of rounds
// disturbed by a stall or a busy host does not move; a pooled p99 would
// jump as soon as one round's stall held 1% of the samples.
func endToEnd(ss []e2eSample) []metric {
	perRound := map[string][]float64{}
	var events, secs, cpu float64
	for _, s := range ss {
		for _, m := range s.metrics() {
			perRound[m.name] = append(perRound[m.name], m.value)
		}
		events += float64(s.burstEvents)
		secs += s.burstSecs
		cpu += s.burstCPU
	}
	ms := ss[0].metrics()
	best := readBackBest(ss)
	for i := range ms {
		name := ms[i].name
		switch {
		case name == "ingest_eps":
			ms[i].value = events / secs
		case name == "cpu_s_per_mevent":
			ms[i].value = cpu / events * 1e6
		case ss[0].readBack && strings.HasPrefix(name, "query_"):
			ms[i].value = best[i].value
		default:
			ms[i].value = median(perRound[name])
		}
	}
	return ms
}

// readBackBest returns the query metrics of the trees' read-back over
// a whole run. Every round publishes the same live job, so rank k reads
// the same rows in every round; its time is the fastest of its passes
// over all rounds (a failed read-back keeps the failure time). The
// host's slow stretches can cover a whole round's read-back, and whether
// a run's rounds fell in one or not would otherwise set the p99. The
// fastest time over the run is the query path's own cost.
func readBackBest(ss []e2eSample) []metric {
	best := append([]float64(nil), ss[0].queryLat...)
	for _, s := range ss[1:] {
		for k, v := range s.queryLat[:min(len(s.queryLat), len(best))] {
			if best[k] != queryLimitMs && (v < best[k] || v == queryLimitMs) {
				best[k] = v
			}
		}
	}
	var ms float64
	for _, v := range best {
		ms += v
	}
	return e2eSample{queryLat: best, querySecs: ms / 1e3}.metrics()
}

// tracedEvents is the number of events published while tracing was on.
func (r *runner) tracedEvents() int {
	return r.burstN + len(r.fixedIDs)
}

// Hop names: the node ldmsd (the connector's daemon), the l1 ldmsd, the
// dsosd ingest bus, and the store commit.
var hopNames = []string{"node", "l1", "dsosd"}

// layerMetrics are the traced run's per-layer figures. Every metric is
// reported on every workload; one a workload's topology lacks reads 0.
func (r *runner) layerMetrics(g *gateResult) []metric {
	p := r.pipe
	pub := float64(max(r.published, 1))
	cs := p.conn.Stats()
	gets, puts := ldms.SlabPoolCounters()
	ms := []metric{
		{"connector.on_event_ns_mean", "ns", mean(r.onEventNs)},
		{"connector.on_event_ns_p99", "ns", percentile(r.onEventNs, 0.99)},
		{"connector.dropped", "count", float64(cs.Dropped)},
		{"jsonmsg.encoded_bytes_per_event", "B", float64(cs.Bytes) / pub},
		{"event.slab_outstanding", "count", float64(gets) - float64(puts)},
	}

	var redelivered uint64
	for i, h := range p.hops {
		seg := 0.0
		if h.segment != "" {
			seg = float64(fileSize(h.segment)) / pub
			for _, c := range h.stream.ConsumerStats() {
				redelivered += c.Redelivered
			}
		}
		ms = append(ms,
			metric{"streams.segment_bytes_per_event." + hopNames[i], "B", seg},
			metric{"streams.consumer_lag_max." + hopNames[i], "count", float64(r.lagMax[i].Load())})
	}
	var fetchNs, ackNs, emptyFrac float64
	if l := p.ingest; l != nil {
		fetches := float64(max(l.fetches.Load(), 1))
		fetchNs = float64(l.fetchNs.Load()) / fetches
		ackNs = float64(l.ackNs.Load()) / float64(max(l.acks.Load(), 1))
		emptyFrac = float64(l.empty.Load()) / fetches
	}
	ms = append(ms,
		metric{"streams.redelivered", "count", float64(redelivered)},
		metric{"streams.fetch_ns", "ns", fetchNs},
		metric{"streams.ack_ns", "ns", ackNs},
		metric{"streams.fetch_empty_frac", "ratio", emptyFrac})

	for _, h := range p.hops[1:] {
		labels := `{srv="` + h.name + `"}`
		frames := p.reg.Value("dlc_tcp_frames_total"+labels) + p.reg.Value("dlc_tcp_batch_frames_total"+labels)
		ms = append(ms,
			metric{"ldms.wire_bytes_per_event." + h.name, "B", p.reg.Value("dlc_tcp_wire_bytes_total"+labels) / pub},
			metric{"ldms.frames_per_kevent." + h.name, "count", frames / pub * 1000})
	}
	var fwdDropped, naks, dups uint64
	for _, f := range p.fwds {
		fwdDropped += f.Stats().Dropped
	}
	for _, u := range p.uplinks {
		naks += u.Stats().Naks
	}
	if p.dedup != nil {
		dups = p.dedup.Duplicates()
	}
	ms = append(ms,
		metric{"ldms.fwd_spool_depth_max", "count", float64(r.spoolMax.Load())},
		metric{"ldms.fwd_dropped", "count", float64(fwdDropped)},
		metric{"ldms.uplink_naks", "count", float64(naks)},
		metric{"ldms.dedup_duplicates", "count", float64(dups)})
	logs := append(append([]*stampLog(nil), r.hopLogs...), p.probe.commits)
	for i, name := range append(append([]string(nil), hopNames...), "store") {
		ages := r.hopAges(logs[i])
		ms = append(ms,
			metric{"ldms.hop_age_p50_ms." + name, "ms", percentile(ages, 0.50)},
			metric{"ldms.hop_age_p99_ms." + name, "ms", percentile(ages, 0.99)})
	}

	ms = append(ms, metric{"topo.placement_skew", "ratio", r.placementSkew()})

	lat, qrows, qns, _ := r.queryFigures(g)
	nq := len(lat)
	stored := float64(max(p.probe.stored.Load(), 1))
	ms = append(ms,
		metric{"dsos.store_ns_per_event", "ns", float64(p.probe.busyNs.Load()) / stored},
		metric{"dsos.store_busy_frac", "ratio", r.storeBusyFrac},
		metric{"dsos.rows_per_query", "count", float64(qrows) / float64(max(nq, 1))},
		metric{"dsos.query_ns_per_row", "ns", float64(qns) / float64(max(qrows, 1))})

	var wal int64
	for _, f := range p.walFiles {
		wal += fileSize(f)
	}
	overhead := 0.0
	if r.untracedEPS > 0 {
		overhead = 1 - r.tracedEPS/r.untracedEPS
	}
	ms = append(ms,
		metric{"sos.wal_bytes_per_event", "B", float64(wal) / pub},
		metric{"sos.iter_ns_per_row", "ns", r.iterNsRow},
		metric{"runtime.allocs_per_event", "count", r.allocsPerEvent},
		metric{"runtime.gc_cpu_frac", "ratio", r.gcCPUFrac},
		metric{"bench.generator_lag_max_ms", "ms", float64(r.genLagMax) / 1e6},
		metric{"bench.tracing_overhead_frac", "ratio", overhead},
		metric{"lost_frac", "ratio", float64(g.lost) / pub},
		metric{"dup_frac", "ratio", float64(g.dups) / pub})
	return ms
}

// placementSkew is the ratio of the most to the least loaded shard's
// rows.
func (r *runner) placementSkew() float64 {
	lo, hi := -1, 0
	for _, d := range r.pipe.shards {
		n := d.Count(dsos.DarshanSchemaName)
		if lo < 0 || n < lo {
			lo = n
		}
		hi = max(hi, n)
	}
	if lo <= 0 {
		return 0
	}
	return float64(hi) / float64(lo)
}
