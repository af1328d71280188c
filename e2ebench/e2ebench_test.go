package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"darshanldms/internal/ldms"
	"darshanldms/internal/streams"
)

// benchSpec reads the metric lists of BENCHMARK.json at the repo root.
func benchSpec(t *testing.T) (e2e, layer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	for _, w := range def.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark does not define", w.Name)
		}
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range def.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range def.PerLayer {
		layer[m.Name] = m.Unit
	}
	return e2e, layer
}

// shortRun runs one short round of a workload.
func shortRun(t *testing.T, wl workload, traced bool) *result {
	t.Helper()
	wl.rounds = 1
	res, err := runWorkload(wl, 7, 2, traced, t.TempDir(), io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", wl.name, err)
	}
	return res
}

// TestShortRunPrintsEveryMetric runs every workload briefly, untraced and
// traced, and checks that each run passes the gate, prints exactly the
// metrics BENCHMARK.json names, each with its unit, and stops every
// goroutine it started.
func TestShortRunPrintsEveryMetric(t *testing.T) {
	e2e, layer := benchSpec(t)
	goroutines := runtime.NumGoroutine()
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			res := shortRun(t, wl, traced)
			want := e2e
			if traced {
				want = layer
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", wl.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", wl.name, traced, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", wl.name, traced, name)
				case m.Unit != unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", wl.name, traced, name, m.Unit, unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", wl.name, traced, name, m.Value)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.name, name, m.Value)
				}
			}
			if traced {
				enc := res.Metrics["jsonmsg.encoded_bytes_per_event"].Value
				seg := res.Metrics["streams.segment_bytes_per_event.node"].Value
				if wl.durable && (enc == 0 || seg == 0) {
					t.Errorf("%s: encoded %v B/event, segment %v B/event; want both non-zero", wl.name, enc, seg)
				}
				if !wl.durable && (enc != 0 || seg != 0) {
					t.Errorf("%s: encoded %v B/event, segment %v B/event; want both zero", wl.name, enc, seg)
				}
			}
		}
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("%d goroutines left running after the runs, %d before", n, goroutines)
	}
}

// faultyStore silently drops the n-th message and stores the m-th twice.
type faultyStore struct {
	inner      ldms.StorePlugin
	mu         sync.Mutex
	calls      int
	drop, twin int
}

func (s *faultyStore) Name() string { return "faulty(" + s.inner.Name() + ")" }

func (s *faultyStore) Store(m streams.Message) error {
	s.mu.Lock()
	s.calls++
	k := s.calls
	s.mu.Unlock()
	switch k {
	case s.drop:
		return nil
	case s.twin:
		if err := s.inner.Store(m); err != nil {
			return err
		}
	}
	return s.inner.Store(m)
}

// TestGateCatchesDropAndDuplicate: a store that loses one message and
// stores another twice keeps the row count right, so only the content
// digest can tell; the gate must fail the run.
func TestGateCatchesDropAndDuplicate(t *testing.T) {
	for _, name := range []string{"besteffort-tree", "durable-tree"} {
		wl, _ := workloadByName(name)
		r := &runner{
			wl: wl, seed: 3, dir: t.TempDir(), burstN: 3000, fixedDur: 200 * time.Millisecond,
			wrapStore: func(inner ldms.StorePlugin) ldms.StorePlugin {
				return &faultyStore{inner: inner, drop: 1500, twin: 2500}
			},
		}
		g, _, err := r.round()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g.ok() {
			t.Fatalf("%s: gate passed a store that dropped one message and doubled another", name)
		}
		if !strings.Contains(strings.Join(g.mismatches, "\n"), "digest") {
			t.Errorf("%s: mismatches %q do not name the digest", name, g.mismatches)
		}
	}
}

// TestSameSeedSameStream: the generated event stream is a pure function
// of the seed.
func TestSameSeedSameStream(t *testing.T) {
	for _, shape := range []jobShape{checkpointJob, perProcessJob, finishedJobs()[0]} {
		a, b := newEventStream(11, shape), newEventStream(11, shape)
		if !reflect.DeepEqual(a.tmpl, b.tmpl) || a.period != b.period {
			t.Fatalf("job %d: same seed gave different streams", shape.job)
		}
		if c := newEventStream(12, shape); reflect.DeepEqual(a.tmpl, c.tmpl) {
			t.Fatalf("job %d: different seeds gave the same stream", shape.job)
		}
		for _, i := range []int{0, len(a.tmpl) - 1, len(a.tmpl), 3*len(a.tmpl) + 5} {
			ra, rb := a.rows(i, nil), b.rows(i, nil)
			if !reflect.DeepEqual(ra, rb) {
				t.Fatalf("job %d: event %d rows differ", shape.job, i)
			}
		}
	}
}

// TestSelfTimes checks the self-time computation on a hand-built tree:
//
//	root [0,100)
//	  a [10,40)       with child c [20,30)
//	  b [35,60)       overlaps a: [35,40) is covered once
//	  d [90,120)      clipped to the root's end
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "ldms.root", Start: 0, End: 100, Parent: -1},
		{Name: "dsos.a", Start: 10, End: 40, Parent: 0},
		{Name: "dsos.b", Start: 35, End: 60, Parent: 0},
		{Name: "sos.c", Start: 20, End: 30, Parent: 1},
		{Name: "sos.d", Start: 90, End: 120, Parent: 0},
	}
	got := selfTimes(spans)
	// root: 100 - |[10,60) u [90,100)| = 100 - 60 = 40
	want := []int64{40, 20, 25, 10, 30}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	rows := layerTable(spans)
	wantRows := []layerRow{{"dsos", 2, 45}, {"ldms", 1, 40}, {"sos", 2, 40}}
	if !reflect.DeepEqual(rows, wantRows) {
		t.Fatalf("layer table %v, want %v", rows, wantRows)
	}
	merged := mergeLayerRows([]layerRow{{"sos", 1, 5}}, rows)
	wantMerged := []layerRow{{"dsos", 2, 45}, {"ldms", 1, 40}, {"sos", 3, 45}}
	if !reflect.DeepEqual(merged, wantMerged) {
		t.Fatalf("merged table %v, want %v", merged, wantMerged)
	}
}

// TestTracerNesting checks open/close nesting and the off switch.
func TestTracerNesting(t *testing.T) {
	var off *tracer
	off.close(off.open("x", "", 0)) // a nil tracer records nothing
	tr := newTracer(time.Now())
	tr.close(tr.open("x", "", 0)) // off: nothing recorded
	tr.enable(true)
	outer := tr.open("ldms.dedup", "p", 1)
	inner := tr.open("dsos.store", "p", 1)
	tr.close(inner)
	tr.close(outer)
	tr.add("streams.ack", time.Now(), time.Now(), -1)
	s := tr.snapshot()
	if len(s) != 3 || s[0].Parent != -1 || s[1].Parent != 0 || s[2].Parent != -1 {
		t.Fatalf("spans %+v", s)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// TestReadBackBest: each rank's read-back time is its fastest over the
// rounds, and a failed read-back in any round keeps the failure time.
func TestReadBackBest(t *testing.T) {
	rounds := []e2eSample{
		{queryLat: []float64{0.3, 0.1, 0.2, 0.1}, readBack: true},
		{queryLat: []float64{0.1, 0.2, queryLimitMs, 0.4}, readBack: true},
	}
	got := map[string]float64{}
	for _, m := range readBackBest(rounds) {
		got[m.name] = m.value
	}
	// Best times 0.1, 0.1, 1000, 0.1 ms: 4 queries in 1000.3 ms.
	want := map[string]float64{"query_p50_ms": 0.1, "query_p99_ms": queryLimitMs, "query_qps": 4 / 1.0003}
	for name, w := range want {
		if math.Abs(got[name]-w) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got[name], w)
		}
	}
}

// TestVerdict covers the compare mode's four outcomes.
func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{50, 150, 80, 120, 100, 60, 140, 90, 110, 100}
	cases := []struct {
		a, b   []float64
		better string
		want   string
	}{
		{base, scale(base, 1.02), "higher", "within bounds"},
		{base, scale(base, 1.3), "higher", "better"},
		{base, scale(base, 1.3), "lower", "worse"},
		{base, noisy, "higher", "unresolved"},
	}
	for _, c := range cases {
		if got := verdict(c.a, c.b, c.better, 0.1); got != c.want {
			t.Errorf("verdict(%v vs %v, %s) = %s, want %s", c.a, c.b, c.better, got, c.want)
		}
	}
}

// TestParseRun reads a run's output back for compare mode.
func TestParseRun(t *testing.T) {
	out := "== x\n" +
		`{"provenance":{"workload":"durable-tree","trace":false}}` + "\n" +
		`{"correct":true,"attempted":3,"failed":0,"metrics":{"ingest_eps":{"value":12.5,"unit":"events/s"}}}` + "\n"
	rec, err := parseRun(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if rec.workload != "durable-tree" || rec.trace || rec.metrics["ingest_eps"] != 12.5 {
		t.Fatalf("parsed %+v", rec)
	}
}
