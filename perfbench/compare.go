package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Compare mode reads the result files two commits left (each run writes
// one into <workdir>/results) and prints, per workload and metric, each
// side's median and quartiles, the pairs each side won, and a verdict. It
// reports only; it gates nothing.

// metricSpecs reads each metric's direction, and each end-to-end
// metric's bound, from BENCHMARK.json in the working directory, when
// there is one.
func metricSpecs() map[string]specOf {
	out := map[string]specOf{}
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return out
	}
	type entry struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var spec struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if json.Unmarshal(b, &spec) == nil {
		for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
			out[m.Name] = specOf{bound: m.Bound, lower: m.Better == "lower"}
		}
	}
	return out
}

// specOf is what BENCHMARK.json says of a metric.
type specOf struct {
	bound float64 // 0 for per-layer metrics
	lower bool    // lower is better
}

// specFor returns a metric's spec. Of the end-to-end metrics
// BENCHMARK.json leaves out, capacity_rps is better higher; the others
// are latencies, sizes and failure ratios, better lower. defaultBound
// applies to them all.
func specFor(specs map[string]specOf, name string) specOf {
	if s, ok := specs[name]; ok {
		if s.bound == 0 {
			s.bound = defaultBound
		}
		return s
	}
	return specOf{bound: defaultBound, lower: name != "capacity_rps"}
}

// defaultBound applies to end-to-end metrics BENCHMARK.json does not bound.
const defaultBound = 0.10

type side map[string]map[int64]*runResult // "workload/traceN" → seed → result

func loadResults(dir string) (side, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := side{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r runResult
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		key := fmt.Sprintf("%s/trace%d", r.Workload, b2i(r.Trace))
		if out[key] == nil {
			out[key] = map[int64]*runResult{}
		}
		out[key][r.Seed] = &r
	}
	return out, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) (the exclusive
// method), the spread rule the benchmark's bounds are checked with.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	if len(d) == 1 {
		return d[0], d[0], d[0]
	}
	ld, m := len(d), len(d)+1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// verdict applies the rules of a gain claim: improved when the change
// wins at least nine tenths of the pairs and the medians differ by more
// than the parent's quartile spread; worse or no worse by the bound
// where the spread is within it; unresolved otherwise, unless every run
// of the change beats every run of the parent.
func verdict(a, b []float64, winsB, pairs int, bound float64, lower bool) string {
	q1a, ma, q3a := quartiles(a)
	q1b, mb, q3b := quartiles(b)
	better := func(x, y float64) bool { return lower && x < y || !lower && x > y }
	if pairs > 0 && float64(winsB) >= 0.9*float64(pairs) && math.Abs(mb-ma) > q3a-q1a && better(mb, ma) {
		return "improved"
	}
	if ma == 0 {
		if q3b <= 0 && lower {
			return "no worse within bound" // a zero count or ratio that stayed zero
		}
		return "unresolved"
	}
	worseBy := (mb - ma) / math.Abs(ma)
	if !lower {
		worseBy = -worseBy
	}
	spread := math.Max((q3a-q1a)/math.Abs(ma), (q3b-q1b)/math.Abs(mb))
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	switch {
	case allBetter:
		return "improved"
	case spread > bound:
		return "unresolved"
	case worseBy > bound:
		return "worse"
	default:
		return "no worse within bound"
	}
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare PARENT_RESULTS_DIR CHANGE_RESULTS_DIR")
		return 2
	}
	a, err := loadResults(args[0])
	if err == nil {
		var b side
		b, err = loadResults(args[1])
		if err == nil {
			compareSides(stdout, a, b, metricSpecs())
			return 0
		}
	}
	fmt.Fprintln(stderr, "perfbench:", err)
	return 1
}

func compareSides(w io.Writer, a, b side, specs map[string]specOf) {
	var keys []string
	for k := range a {
		if b[k] != nil {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "%-22s %-34s %28s %28s %9s  %s\n", "workload", "metric", "parent q1/med/q3", "change q1/med/q3", "won p/c", "verdict")
	for _, k := range keys {
		names := map[string]bool{}
		for _, r := range a[k] {
			for n := range r.Metrics {
				names[n] = true
			}
		}
		var sorted []string
		for n := range names {
			sorted = append(sorted, n)
		}
		sort.Strings(sorted)
		for _, n := range sorted {
			var va, vb []float64
			winsA, winsB, pairs := 0, 0, 0
			spec := specFor(specs, n)
			lower := spec.lower
			for seed, ra := range a[k] {
				ma, ok := ra.Metrics[n]
				if !ok {
					continue
				}
				va = append(va, ma.Value)
				if rb, ok := b[k][seed]; ok {
					if mb, ok := rb.Metrics[n]; ok {
						pairs++
						switch {
						case lower && mb.Value < ma.Value || !lower && mb.Value > ma.Value:
							winsB++
						case mb.Value != ma.Value:
							winsA++
						}
					}
				}
			}
			for _, rb := range b[k] {
				if mb, ok := rb.Metrics[n]; ok {
					vb = append(vb, mb.Value)
				}
			}
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := "report only"
			if strings.HasSuffix(k, "trace0") {
				v = verdict(va, vb, winsB, pairs, spec.bound, lower)
			}
			q1a, ma, q3a := quartiles(va)
			q1b, mb, q3b := quartiles(vb)
			fmt.Fprintf(w, "%-22s %-34s %28s %28s %4d/%-4d  %s\n", k, n,
				fmt.Sprintf("%.4g/%.4g/%.4g", q1a, ma, q3a), fmt.Sprintf("%.4g/%.4g/%.4g", q1b, mb, q3b),
				winsA, winsB, v)
		}
	}
	for _, s := range []struct {
		name string
		side side
	}{{"parent", a}, {"change", b}} {
		printOverhead(w, s.name, s.side)
	}
}

// printOverhead sets the traced runs' end-to-end numbers against the
// untraced runs' of the same side: the cost of tracing.
func printOverhead(w io.Writer, name string, s side) {
	for k, traced := range s {
		if !strings.HasSuffix(k, "trace1") {
			continue
		}
		wl := strings.TrimSuffix(k, "/trace1")
		plain := s[wl+"/trace0"]
		for _, pair := range [][2]string{{"trace.search_p50_ms", "search_p50_ms"}, {"trace.capacity_rps", "capacity_rps"}} {
			var t, u []float64
			for _, r := range traced {
				if m, ok := r.Metrics[pair[0]]; ok {
					t = append(t, m.Value)
				}
			}
			for _, r := range plain {
				if m, ok := r.Metrics[pair[1]]; ok {
					u = append(u, m.Value)
				}
			}
			if len(t) == 0 || len(u) == 0 {
				continue
			}
			_, mt, _ := quartiles(t)
			_, mu, _ := quartiles(u)
			fmt.Fprintf(w, "tracing overhead %s %s %s: traced %.4g vs untraced %.4g (%+.1f%%)\n",
				name, wl, pair[1], mt, mu, 100*(mt-mu)/mu)
		}
	}
}
