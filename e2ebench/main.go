// Command e2ebench is the repository's end-to-end benchmark. It wires the
// connector, ldmsd levels and dsosd in one process from the same public
// constructors and defaults the daemons' flags select, with real loopback
// TCP between daemons and real segment and WAL files, drives the
// connector from a seeded event stream, checks that every event is
// stored once with the right content, and prints the end-to-end metrics
// (or, with --trace 1, the per-layer metrics of a traced run) as one JSON
// object on the last line of standard output.
//
//	e2ebench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//	e2ebench compare <runs-dir-A> <runs-dir-B>
//
// See README.md for the workloads, the metrics and what each one answers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

func main() {
	fs := flag.NewFlagSet("e2ebench", flag.ExitOnError)
	root := fs.String("root", ".", "checkout root; scratch files go under <root>/.bench_build")
	benchJSON := fs.String("bench-json", "BENCHMARK.json", "benchmark definition (compare mode reads its bounds)")
	name := fs.String("workload", "all", "workload name, or all")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 40, "run length: sizes the burst and fixed-rate phases")
	trace := fs.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if fs.NArg() > 0 {
		if fs.Arg(0) != "compare" {
			fmt.Fprintf(os.Stderr, "e2ebench: unknown command %q\n", fs.Arg(0))
			os.Exit(2)
		}
		os.Exit(compareMain(*benchJSON, fs.Args()[1:], os.Stdout))
	}
	var list []workload
	if *name == "all" {
		list = workloads
	} else {
		wl, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		list = []workload{wl}
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	status := 0
	for _, wl := range list {
		res, err := runWorkload(wl, *seed, *seconds, *trace == 1, *root, os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", wl.name, err)
			os.Exit(1)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		if !res.Correct {
			status = 1
		}
		runtime.GC()
	}
	os.Exit(status)
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metric is one named, unit-carrying figure of a run.
type metric struct {
	name  string
	unit  string
	value float64
}

// runWorkload runs one workload's rounds and returns its result line.
// The end-to-end metrics combine the rounds (see endToEnd); each per-layer
// metric of the traced run is its median over the rounds. The
// human-readable report goes to out first.
func runWorkload(wl workload, seed uint64, seconds float64, traced bool, root string, out io.Writer) (*result, error) {
	base := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	burstN, fixed := wl.phaseSizes(seconds, wl.rounds)
	rounds := wl.rounds
	res := &result{Correct: true, Metrics: map[string]metricValue{}}
	var names []string
	perRound := map[string][]float64{}
	units := map[string]string{}
	var runs []roundSummary
	var samples []e2eSample
	var problems []string
	var selfRows []layerRow // traced: self time summed over the rounds
	tracedEvents := 0
	for k := 0; k < rounds; k++ {
		rdir := filepath.Join(dir, fmt.Sprintf("round%d", k))
		if err := os.Mkdir(rdir, 0o755); err != nil {
			return nil, err
		}
		r := &runner{wl: wl, seed: seed, traced: traced, dir: rdir, burstN: burstN, fixedDur: fixed}
		g, spans, err := r.round()
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", k, err)
		}
		runs = append(runs, r.summary())
		ms := r.layer
		if !traced {
			samples = append(samples, r.sample)
			ms = r.sample.metrics()
		}
		for _, m := range ms {
			if _, seen := units[m.name]; !seen {
				names = append(names, m.name)
				units[m.name] = m.unit
			}
			perRound[m.name] = append(perRound[m.name], m.value)
		}
		res.Correct = res.Correct && g.ok() && r.queryFailed == 0
		res.Attempted += r.published + len(r.queryLat) + g.rankQueries
		res.Failed += g.lost + g.dups + r.queryFailed + len(g.mismatches)
		for _, m := range g.mismatches {
			problems = append(problems, fmt.Sprintf("round %d: GATE: %s", k, m))
		}
		for _, n := range r.notes {
			problems = append(problems, fmt.Sprintf("round %d: NOTE: %s", k, n))
		}
		if traced {
			selfRows = mergeLayerRows(selfRows, layerTable(spans))
			tracedEvents += r.tracedEvents()
			if k == 0 {
				path := spanDumpPath(root, wl.name, seed)
				if err := dumpSpans(path, spans); err != nil {
					return nil, err
				}
				fmt.Fprintf(out, "span dump: %s (round 0, %d spans, %d dropped)\n", path, len(spans), r.tr.dropped)
			}
		}
		if err := os.RemoveAll(rdir); err != nil {
			return nil, err
		}
		runtime.GC()
	}

	if traced {
		fmt.Fprintf(out, "per-layer self time (traced phases of %d rounds, %d events):\n", rounds, tracedEvents)
		writeLayerTable(out, selfRows, tracedEvents)
	}
	fmt.Fprintf(out, "== %s (seed %d, %gs, trace %v, %d rounds)\n", wl.name, seed, seconds, traced, rounds)
	final := map[string]float64{}
	if !traced {
		for _, m := range endToEnd(samples) {
			final[m.name] = m.value
		}
	}
	for _, name := range names {
		vals := perRound[name]
		v := median(append([]float64(nil), vals...))
		if !traced {
			v = final[name]
		}
		res.Metrics[name] = metricValue{Value: v, Unit: units[name]}
		fmt.Fprintf(out, "%-32s %14.6g %-9s rounds %s\n", name, v, units[name], fmtList(vals))
	}
	for _, p := range problems {
		fmt.Fprintln(out, p)
	}
	pj, err := json.Marshal(map[string]any{"provenance": provenance(wl, seed, seconds, traced, runs)})
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(out, string(pj))
	return res, nil
}

// round runs one round: set-up, phases, gate and teardown. It leaves
// the round's figures in r.layer (traced) or r.sample (untraced), taken
// before the pipeline closes.
func (r *runner) round() (*gateResult, []span, error) {
	if err := r.setup(); err != nil {
		if r.pipe != nil {
			r.pipe.close()
		}
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	err := r.execute()
	var g *gateResult
	if err == nil {
		g = r.gate()
		if r.traced {
			r.layer = r.layerMetrics(g)
		} else {
			r.sample = r.e2eSample(g)
		}
	}
	var spans []span
	if r.tr != nil {
		spans = r.tr.snapshot()
	}
	if cerr := r.pipe.close(); err == nil {
		err = cerr
	}
	return g, spans, err
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, " ")
}

// roundSummary is what provenance keeps of a finished round, so the
// round's pipeline and store can be collected.
type roundSummary struct {
	setupS, fixedS, querySpan                 float64
	burstPhases                               []float64
	freshN, queryN, onEventN, published, tmpl int
}

func (r *runner) summary() roundSummary {
	return roundSummary{
		setupS: r.setupS, fixedS: r.fixedS, querySpan: r.querySpan, burstPhases: r.burstPhases,
		freshN: len(r.fixedIDs), queryN: r.queryN, onEventN: len(r.onEventNs),
		published: r.published, tmpl: len(r.gen.tmpl),
	}
}

// provenance records the host, toolchain, commit, seed, phase lengths,
// fixed rate and the sample count behind every percentile of a run.
func provenance(wl workload, seed uint64, seconds float64, traced bool, runs []roundSummary) map[string]any {
	commit, modified := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
	}
	burstN, _ := wl.phaseSizes(seconds, wl.rounds)
	var setup, bursts, fixed, querySecs []float64
	var freshN, queryN, onEventN, published []int
	for _, r := range runs {
		setup = append(setup, r.setupS)
		bursts = append(bursts, r.burstPhases...)
		fixed = append(fixed, r.fixedS)
		querySecs = append(querySecs, r.querySpan)
		freshN = append(freshN, r.freshN)
		queryN = append(queryN, r.queryN)
		onEventN = append(onEventN, r.onEventN)
		published = append(published, r.published)
	}
	return map[string]any{
		"workload":          wl.name,
		"trace":             traced,
		"seed":              seed,
		"seconds":           seconds,
		"rounds":            len(runs),
		"gomaxprocs":        runtime.GOMAXPROCS(0),
		"nproc":             runtime.NumCPU(),
		"cpu_model":         cpuModel(),
		"go_version":        runtime.Version(),
		"git_commit":        commit,
		"git_modified":      modified,
		"setup_s":           setup,
		"warmup_events":     warmupEvents,
		"burst_events":      burstN,
		"burst_s":           bursts,
		"fixed_rate_eps":    wl.rate,
		"fixed_phase_s":     fixed,
		"query_phase_s":     querySecs,
		"published":         published,
		"freshness_samples": freshN,
		"query_samples":     queryN,
		"on_event_samples":  onEventN,
		"events_per_cycle":  runs[0].tmpl,
	}
}

// cpuModel reads the processor model name, "unknown" if unavailable.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
