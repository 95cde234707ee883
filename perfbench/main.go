// Command perfbench is the repository's serving benchmark. It generates
// a DBLP-shaped corpus and a request stream from a workload seed, serves
// the stream through the real HTTP handler of internal/server on a
// loopback listener (open loop at a fixed rate, then closed loop for
// capacity), checks every answer against an independently built engine
// (the live store, whose data moves under its answers, at the end of the
// run instead), and prints every end-to-end metric by name and unit. With --trace 1 it
// instead reports per-layer metrics from spans it records around calls
// into each module. See README.md.
//
// Usage:
//
//	perfbench --workload search_miss --seed 1 --seconds 20 --trace 0
//	perfbench compare RESULTS_DIR_A RESULTS_DIR_B
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: search_miss, session_hit, ingest_rw or cluster_miss")
	seed := fs.Int64("seed", 1, "workload seed: the request stream is a function of it")
	seconds := fs.Int("seconds", 20, "measured seconds: open loop, then closed loop")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	workdir := fs.String("workdir", envOr("BENCH_WORKDIR", ".bench_build"), "directory for temp files, results and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload one of %s, --seconds ≥ 1, --trace 0|1\n", workloadNames())
		return 2
	}
	res, err := runWorkload(w, *seed, *seconds, *trace == 1, *workdir)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	report(stdout, res)
	if err := saveResult(*workdir, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	// The last line: the metrics BENCHMARK.json declares.
	out := map[string]metric{}
	if res.Trace {
		for _, m := range perLayerMetrics {
			v, ok := res.Metrics[m.name]
			if !ok {
				v = metric{Value: 0, Unit: m.unit} // layer not exercised by this workload
			}
			out[m.name] = v
		}
	} else {
		for _, n := range gatedMetrics {
			v, ok := res.Metrics[n]
			if !ok {
				fmt.Fprintf(stderr, "perfbench: %s: no %s (too few samples?)\n", w.Name, n)
				return 1
			}
			out[n] = v
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": out,
	})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintln(stderr, "perfbench: wrong answers; see failures above")
		return 1
	}
	if len(res.DesignViolations) > 0 {
		fmt.Fprintln(stderr, "perfbench: the workload did not do what it was designed for; see above")
		return 1
	}
	return 0
}

func envOr(k, def string) string {
	if v := os.Getenv(k); v != "" {
		return v
	}
	return def
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.Name)
	}
	return strings.Join(ns, ", ")
}

// report prints the run for a reader: provenance, every metric with its
// unit, and the first failures.
func report(w io.Writer, r *runResult) {
	p := r.Provenance
	fmt.Fprintf(w, "workload %s seed %d trace %v\n", r.Workload, r.Seed, r.Trace)
	fmt.Fprintf(w, "provenance commit=%s dirty=%s go=%s %s/%s cpu=%q nproc=%d gomaxprocs=%d\n",
		p.Commit, p.Dirty, p.GoVersion, p.GOOS, p.GOARCH, p.CPU, p.NumCPU, p.GOMAXPROCS)
	fmt.Fprintf(w, "provenance dataset=dblp publications=%d data_seed=%d workload_seed=%d backend=%s offered=%g ops/s fsync=%s temp_fs=%s\n",
		p.DataPubs, p.DataSeed, p.Seed, p.Backend, p.OfferedRate, orDash(p.Fsync), p.TempFS)
	fmt.Fprintf(w, "provenance steal_ratio=%.3f (CPU time the hypervisor took during the measured phases)\n", p.StealRatio)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "metric %-34s %14.4f %s\n", n, m.Value, m.Unit)
	}
	ops := make([]string, 0, len(r.Samples))
	for op := range r.Samples {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		fmt.Fprintf(w, "samples %s %d\n", op, r.Samples[op])
	}
	fmt.Fprintf(w, "ops attempted=%d failed=%d correct=%v\n", r.Attempted, r.Failed, r.Correct)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "failure %s\n", f)
	}
	if r.Trace {
		if len(r.DesignViolations) == 0 {
			fmt.Fprintf(w, "design ok: %s did what it was designed to exercise\n", r.Workload)
		}
		for _, v := range r.DesignViolations {
			fmt.Fprintf(w, "design violated: %s\n", v)
		}
	}
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// saveResult writes the full result where compare mode finds it.
func saveResult(workdir string, r *runResult) error {
	dir := filepath.Join(workdir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	trace := 0
	if r.Trace {
		trace = 1
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, r.Seed, trace)), b, 0o644)
}
