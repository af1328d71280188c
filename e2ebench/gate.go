package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"darshanldms/internal/dsos"
	"darshanldms/internal/sos"
)

// readBackPasses is how many times the gate reads back every rank of the
// live job; each rank's query time is the fastest of its passes.
const readBackPasses = 8

// gateResult is the correctness gate's verdict on one run.
type gateResult struct {
	published  int
	lost, dups int // identities never stored / stored more than once
	mismatches []string
	// Per-rank read-back of the live job: the query figures of the tree
	// workloads, which run no queries while ingesting. rankLat holds each
	// rank's fastest pass, rankNs their sum, rankRow the rows of one pass.
	rankLat     []float64 // ms
	rankNs      int64
	rankRow     int64
	rankQueries int // queries issued over all passes
}

func (g *gateResult) ok() bool { return g.lost == 0 && g.dups == 0 && len(g.mismatches) == 0 }

func (g *gateResult) failf(format string, args ...any) {
	g.mismatches = append(g.mismatches, fmt.Sprintf(format, args...))
}

// gate compares what the store holds with what was published. Loss and
// duplication are counted per (producer, seq) identity at the store
// commit; content is compared per job as an order-independent digest of
// the rows against the reference path (jsonmsg.FromEvent +
// dsos.AppendObjects over the generated events); every rank of the live
// job is read back and its row count checked.
func (r *runner) gate() *gateResult {
	g := &gateResult{published: r.published}
	commits := r.pipe.probe.commits
	for p, last := range r.seqs {
		for seq := uint64(1); seq <= last; seq++ {
			switch _, n := commits.get(p, seq); {
			case n == 0:
				g.lost++
			case n > 1:
				g.dups++
			}
		}
	}

	live := jobRef{job: r.wl.live.job, rankRows: make([]int, r.wl.live.producers*r.wl.live.ranks)}
	var rows []sos.Object
	for i := 0; i < r.published; i++ {
		rows = r.gen.rows(i, rows[:0])
		for _, o := range rows {
			live.rows++
			live.hash += rowHash(o)
			live.rankRows[o[dsos.ColRank].(int64)]++
		}
	}
	for _, ref := range append([]jobRef{live}, r.preRefs...) {
		objs, err := r.pipe.query("job_rank_time", sos.Key{ref.job}, sos.Key{ref.job + 1})
		if err != nil {
			g.failf("job %d: query: %v", ref.job, err)
			continue
		}
		var h uint64
		for _, o := range objs {
			h += rowHash(o)
		}
		if len(objs) != ref.rows || h != ref.hash {
			g.failf("job %d: stored %d rows (digest %016x), reference %d rows (digest %016x)",
				ref.job, len(objs), h, ref.rows, ref.hash)
		}
	}
	// The timed read-back starts from a full collection, as every phase
	// does, so that the garbage of the reference rows built above does
	// not set off a collection under some rounds' queries and not
	// others'. The host's other tenants halve this one's single-thread
	// speed in stretches of a tenth of a second to minutes, which a
	// 0.1 ms query feels in full. So every rank is read back in
	// readBackPasses passes spread over most of a second, and its time is
	// the fastest pass: the query path's own cost, which the stretches
	// move far less than any one pass.
	runtime.GC()
	best := make([]time.Duration, len(live.rankRows))
	failed := make([]bool, len(live.rankRows))
	for pass := 0; pass < readBackPasses; pass++ {
		for rank, want := range live.rankRows {
			t0 := time.Now()
			objs, err := r.pipe.query("job_rank_time", sos.Key{live.job, int64(rank)}, sos.Key{live.job, int64(rank + 1)})
			d := time.Since(t0)
			g.rankQueries++
			if err != nil || len(objs) != want {
				g.failf("job %d rank %d: read back %d rows, want %d (err %v)", live.job, rank, len(objs), want, err)
				failed[rank] = true
				continue
			}
			if pass == 0 || d < best[rank] {
				best[rank] = d
			}
			if pass == 0 {
				g.rankRow += int64(len(objs))
			}
		}
	}
	for rank, d := range best {
		if failed[rank] {
			g.rankLat = append(g.rankLat, queryLimitMs)
			continue
		}
		g.rankLat = append(g.rankLat, float64(d)/1e6)
		g.rankNs += int64(d)
	}
	if r.wl.queries {
		r.iterNsRow = r.iterProbe(live.job, len(live.rankRows))
	}
	return g
}

// iterProbe times sos Container.Iter on one shard over the per-rank key
// ranges the queries use, returning ns per row visited.
func (r *runner) iterProbe(job int64, ranks int) float64 {
	c := r.pipe.shards[0].Container()
	var rows int64
	t0 := time.Now()
	for rank := 0; rank < ranks; rank++ {
		_ = c.Iter("job_rank_time", sos.Key{job, int64(rank)}, func(o sos.Object) bool {
			if o[dsos.ColJobID].(int64) != job || o[dsos.ColRank].(int64) != int64(rank) {
				return false
			}
			rows++
			return true
		}) // the index exists: Iter fails only on an unknown index
	}
	if rows == 0 {
		return 0
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(rows)
}

// fileSize is a file's size in bytes, 0 if it cannot be read.
func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// spanDumpPath names the traced run's span dump.
func spanDumpPath(root, workload string, seed uint64) string {
	return filepath.Join(root, ".bench_build", fmt.Sprintf("spans-%s-seed%d.csv", workload, seed))
}
