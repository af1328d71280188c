package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchDef is the part of BENCHMARK.json compare mode reads.
type benchDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runRecord is one run's captured standard output, reduced to its
// workload and metric values.
type runRecord struct {
	workload string
	trace    bool
	metrics  map[string]float64
}

// parseRun reads one run's standard output: the provenance line names the
// workload, the last line is the result.
func parseRun(r io.Reader) (runRecord, error) {
	rec := runRecord{metrics: map[string]float64{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var last string
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		last = line
		var p struct {
			Provenance *struct {
				Workload string `json:"workload"`
				Trace    bool   `json:"trace"`
			} `json:"provenance"`
		}
		if strings.HasPrefix(line, `{"provenance"`) && json.Unmarshal([]byte(line), &p) == nil && p.Provenance != nil {
			rec.workload, rec.trace = p.Provenance.Workload, p.Provenance.Trace
		}
	}
	if err := sc.Err(); err != nil {
		return rec, err
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return rec, fmt.Errorf("last line is not a result: %w", err)
	}
	if rec.workload == "" {
		return rec, fmt.Errorf("no provenance line")
	}
	for name, m := range res.Metrics {
		rec.metrics[name] = m.Value
	}
	return rec, nil
}

// loadRuns parses every regular file in dir that holds one untraced run's
// output, grouped by workload.
func loadRuns(dir string) (map[string][]runRecord, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := map[string][]runRecord{}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		rec, err := parseRun(f)
		f.Close()
		if err != nil {
			// Logs and error files may sit beside the outputs.
			fmt.Fprintf(os.Stderr, "e2ebench: skipping %s: %v\n", e.Name(), err)
			continue
		}
		if !rec.trace {
			out[rec.workload] = append(out[rec.workload], rec)
		}
	}
	return out, nil
}

// verdict classifies B against A for one metric. A side whose quartile
// spread, as a share of its median, is wider than the bound leaves the
// pair unresolved unless every run of one side beats every run of the
// other.
func verdict(a, b []float64, better string, bound float64) string {
	ma, mb := median(append([]float64(nil), a...)), median(append([]float64(nil), b...))
	spread := func(xs []float64, m float64) float64 {
		q1, q3 := quartiles(xs)
		if m == 0 {
			return 0
		}
		return (q3 - q1) / math.Abs(m)
	}
	// gain > 0 means B is better than A, as a share of A's median.
	gain := 0.0
	if ma != 0 {
		gain = (mb - ma) / math.Abs(ma)
		if better == "lower" {
			gain = -gain
		}
	}
	if spread(a, ma) > bound || spread(b, mb) > bound {
		switch {
		case separated(a, b, better):
			return "better"
		case separated(b, a, better):
			return "worse"
		}
		return "unresolved"
	}
	switch {
	case gain > bound:
		return "better"
	case gain < -bound:
		return "worse"
	}
	return "within bounds"
}

// separated reports whether every value of b beats every value of a.
func separated(a, b []float64, better string) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	for _, x := range a {
		for _, y := range b {
			if (better == "lower" && y >= x) || (better != "lower" && y <= x) {
				return false
			}
		}
	}
	return true
}

// compareMain implements `e2ebench compare <dir-A> <dir-B>`.
func compareMain(benchJSON string, args []string, out io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: e2ebench compare <runs-dir-A> <runs-dir-B>")
		return 2
	}
	raw, err := os.ReadFile(benchJSON)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 2
	}
	var def benchDef
	if err := json.Unmarshal(raw, &def); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", benchJSON+":", err)
		return 2
	}
	a, err := loadRuns(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 2
	}
	b, err := loadRuns(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 2
	}
	names := make([]string, 0, len(a))
	for w := range a {
		if len(b[w]) > 0 {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	for _, w := range names {
		fmt.Fprintf(out, "== %s (A: %d runs, B: %d runs)\n", w, len(a[w]), len(b[w]))
		fmt.Fprintf(out, "%-22s %-9s %12s %12s %12s   %12s %12s %12s   %s\n",
			"metric", "unit", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "verdict")
		for _, m := range def.EndToEnd {
			va, vb := values(a[w], m.Name), values(b[w], m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			a1, a3 := quartiles(va)
			b1, b3 := quartiles(vb)
			fmt.Fprintf(out, "%-22s %-9s %12.5g %12.5g %12.5g   %12.5g %12.5g %12.5g   %s\n",
				m.Name, m.Unit, a1, median(append([]float64(nil), va...)), a3,
				b1, median(append([]float64(nil), vb...)), b3, verdict(va, vb, m.Better, m.Bound))
		}
	}
	return 0
}

func values(runs []runRecord, name string) []float64 {
	var xs []float64
	for _, r := range runs {
		if v, ok := r.metrics[name]; ok {
			xs = append(xs, v)
		}
	}
	return xs
}
