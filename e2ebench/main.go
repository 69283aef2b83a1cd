// Command e2ebench is leaksig's end-to-end benchmark. It drives the real
// daemons — leakstream, sigserver, flowproxy and leakcluster — with inputs
// generated from a seed, checks every output against a reference written
// apart from the program, and prints one JSON result line.
//
// Usage (normally through e2ebench/run.sh, which builds the binaries):
//
//	e2ebench -root . -work .bench_build --workload pipe-paper --seed 1 --seconds 40 --trace 0
//	e2ebench -root . -work .bench_build --workload all --seed 1
//	e2ebench -root . -work .bench_build steady --runs 5
//
// With --trace 0 the result carries the end-to-end metrics. With --trace 1
// the run instead times calls into each layer's public functions on the
// same inputs and reports the per-layer metrics; see README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one named figure in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object the benchmark prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// e2e is what one end-to-end workload run measures.
type e2e struct {
	throughput  float64   // operations per second
	latencyMS   []float64 // per-operation latencies the user waits, ms
	cpuUSPerOp  float64
	peakRSSMB   float64
	setup       []float64 // seconds, one per set-up measured
	attempted   int64
	failed      int64
	problems    []string // correctness violations; empty means correct
	completedOp int64
}

func (r *e2e) fail(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// env is what every workload needs: where the binaries and cached inputs
// live, the seed and the run length, and the span recorder (nil when the
// run is untraced).
type env struct {
	root, work, binDir string
	seed               int64
	seconds            time.Duration
	in                 *inputs
	spans              *spanLog
}

func (e *env) bin(name string) string { return filepath.Join(e.binDir, name) }

type workload struct {
	name string
	run  func(*env) (*e2e, error)
}

var workloads = []workload{
	{"pipe-paper", runPipePaper},
	{"pipe-10k", runPipe10k},
	{"proxy-http", runProxy},
	{"generate", runGenerate},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	root := flag.String("root", ".", "repository root")
	work := flag.String("work", ".bench_build", "work directory for binaries, inputs and traces")
	commit := flag.String("commit", "unknown", "commit under test, for the host record")
	name := flag.String("workload", "", "workload: pipe-paper | pipe-10k | proxy-http | generate | all")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 0, "measured seconds per run (0: run_seconds from BENCHMARK.json)")
	traced := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()

	if *seconds == 0 {
		bf, err := readBenchFile(*root)
		if err != nil {
			return err
		}
		*seconds = bf.RunSeconds
	}
	work2, err := filepath.Abs(*work)
	if err != nil {
		return err
	}
	e := &env{root: *root, work: work2, binDir: filepath.Join(work2, "bin"), seed: *seed, seconds: time.Duration(*seconds) * time.Second}

	if flag.Arg(0) == "steady" {
		return runSteady(e, flag.Args()[1:])
	}
	w, ok := findWorkload(*name)
	if !ok && *name != "all" {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	printHost(*commit)

	e.in, err = loadInputs(e.work, e.binDir, e.seed)
	if err != nil {
		return fmt.Errorf("building inputs: %w", err)
	}
	if *name == "all" {
		return runAll(e)
	}
	var res result
	if *traced == 1 {
		res, err = tracedRun(e, w)
	} else {
		var r *e2e
		r, err = w.run(e)
		if err == nil {
			res = r.result(w.name)
		}
	}
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// runAll runs every workload once and prints each end-to-end metric with
// its unit, and each workload's attempted and failed operations, as a
// table for people; it fails if any workload's outputs are incorrect.
func runAll(e *env) error {
	incorrect := 0
	var b strings.Builder
	for _, w := range workloads {
		r, err := w.run(e)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		res := r.result(w.name)
		if !res.Correct {
			incorrect++
		}
		fmt.Fprintf(&b, "%-11s correct=%v attempted=%d failed=%d\n", w.name, res.Correct, res.Attempted, res.Failed)
		names := make([]string, 0, len(res.Metrics))
		for k := range res.Metrics {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(&b, "%-11s %-15s %14.6g %s\n", w.name, k, res.Metrics[k].Value, res.Metrics[k].Unit)
		}
	}
	fmt.Print(b.String())
	if incorrect > 0 {
		return fmt.Errorf("%d workloads produced incorrect outputs", incorrect)
	}
	return nil
}

// result turns a run's measurements into the end-to-end result line.
func (r *e2e) result(name string) result {
	for _, p := range r.problems {
		fmt.Fprintf(os.Stderr, "%s: INCORRECT: %s\n", name, p)
	}
	m := map[string]metric{
		"throughput":     {r.throughput, "1/s"},
		"cpu_us_per_op":  {r.cpuUSPerOp, "us"},
		"peak_rss_mb":    {r.peakRSSMB, "MB"},
		"setup_s":        {median(r.setup), "s"},
		"latency_p50_ms": {median(r.latencyMS), "ms"},
	}
	fmt.Fprintf(os.Stderr, "%s: attempted=%d failed=%d completed=%d throughput=%.1f/s cpu=%.2fus/op rss=%.1fMB setup=%v\n",
		name, r.attempted, r.failed, r.completedOp, r.throughput, r.cpuUSPerOp, r.peakRSSMB, fmtSecs(r.setup))
	fmt.Fprintf(os.Stderr, "%s: latency p50=%.3fms p99=%.3fms samples=%d\n",
		name, quantile(r.latencyMS, 0.5), quantile(r.latencyMS, 0.99), len(r.latencyMS))
	return result{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: m}
}

func fmtSecs(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return "[" + strings.Join(parts, " ") + "]s"
}

// printHost writes the host record to stderr.
func printHost(commit string) {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	host, _ := json.Marshal(map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "cpu": cpu, "commit": commit,
	})
	fmt.Fprintf(os.Stderr, "host: %s\n", host)
}
