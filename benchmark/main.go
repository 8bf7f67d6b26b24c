// Command e2ebench is the repository's end-to-end benchmark. It runs one
// named workload against the public entry points of the scheduler, the
// serving tier and the campaign engine, checks every output, and prints
// the result as one JSON line:
//
//	e2ebench --workload solve-large --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (every workload
// reports every one of them); with --trace 1 the run is split into an
// untraced and a traced half, spans are recorded around each call into
// a layer, and the metrics are the per-layer ones plus the tracing
// overhead. The workload "all" runs every workload in turn. The
// subcommand "compare A.json B.json" compares two result records and
// refuses when they were measured on different hosts.
//
// Build and run it through benchmark/run.sh from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one workload run produced.
type outcome struct {
	attempted, failed int64
	// checks lists every failed output check; an empty list means the
	// outputs were correct.
	checks  []string
	metrics map[string]metric
	// report holds the human-readable lines printed before the result.
	report []string
}

func (o *outcome) set(name string, v float64, unit string) {
	if o.metrics == nil {
		o.metrics = make(map[string]metric)
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) fail(format string, args ...any) {
	o.checks = append(o.checks, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.report = append(o.report, fmt.Sprintf(format, args...))
}

// env is what every workload gets from the command line.
type env struct {
	seed    int64
	seconds float64
	traced  bool
	workdir string // where stores, spans and result records go
}

type workload struct {
	name string
	run  func(env) (*outcome, error)
}

var workloads = []workload{
	{"solve-large", runSolve},
	{"serve-zipf", runServe},
	{"campaign-rover", runCampaign},
}

// benchSpec is what the program reads from BENCHMARK.json: the
// workloads and the metrics a run reports, with their units. A run with
// --trace 0 reports every end-to-end metric, whatever the workload; one
// with --trace 1 every per-layer metric, 0 for a layer the workload
// does not call.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: solve-large, serve-zipf, campaign-rover or all")
		seed    = flag.Int64("seed", 1, "seed the workload inputs are generated from")
		seconds = flag.Float64("seconds", 25, "length of the measured phase in seconds")
		trace   = flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
		workdir = flag.String("workdir", ".bench_build", "directory for stores, spans and result records")
	)
	flag.Parse()
	if args := flag.Args(); len(args) > 0 {
		if args[0] == "compare" && len(args) == 3 {
			os.Exit(compareMain(args[1], args[2]))
		}
		fmt.Fprintln(os.Stderr, "usage: e2ebench --workload NAME --seed N --seconds S --trace 0|1 | e2ebench compare A.json B.json")
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	var run []workload
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			run = append(run, w)
		}
	}
	if len(run) == 0 {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v (run from the repository root)\n", err)
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	h := stampHost(".")
	fmt.Printf("host: %s\n", h)
	code := 0
	for _, w := range run {
		if !runOne(w, spec, h, env{seed: *seed, seconds: *seconds, traced: *trace == 1, workdir: *workdir}) {
			code = 1
		}
	}
	os.Exit(code)
}

// runOne runs one workload, prints its report and result line, and
// stores the result record. It reports whether the run was correct.
func runOne(w workload, spec *benchSpec, h host, e env) bool {
	dir, err := os.MkdirTemp(e.workdir, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return false
	}
	defer os.RemoveAll(dir)
	e.workdir = dir

	start, steal := time.Now(), hostSteal()
	o, err := w.run(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", w.name, err)
		return false
	}
	// Time the hypervisor gave to other guests slows every figure of
	// the run; the share tells a reader whether the host was quiet.
	wall, stolen := time.Since(start).Seconds(), hostSteal()-steal
	o.note("host steal: %.2f CPU-s in %.1f s, %.1f%% of the machine's CPU time", stolen, wall, 100*stolen/(wall*float64(runtime.NumCPU())))
	want := spec.EndToEnd
	if e.traced {
		want = spec.PerLayer
	}
	declared := make(map[string]bool, len(want))
	for _, m := range want {
		declared[m.Name] = true
		v, ok := o.metrics[m.Name]
		switch {
		case !ok && e.traced:
			o.set(m.Name, 0, m.Unit)
		case !ok:
			o.fail("metric %s was not measured", m.Name)
			o.set(m.Name, 0, m.Unit)
		case v.Unit != m.Unit:
			o.fail("metric %s measured in %s, declared in %s", m.Name, v.Unit, m.Unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			o.fail("metric %s is not a finite number", m.Name)
			o.set(m.Name, 0, m.Unit)
		}
	}
	for name := range o.metrics {
		if !declared[name] {
			o.fail("metric %s is not declared in BENCHMARK.json", name)
		}
	}
	if o.attempted < 1 {
		o.fail("no operation was attempted")
	}

	fmt.Printf("== %s seed=%d seconds=%g trace=%v\n", w.name, e.seed, e.seconds, e.traced)
	for _, line := range o.report {
		fmt.Println("  " + line)
	}
	names := make([]string, 0, len(o.metrics))
	for n := range o.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-38s %14.6g %s\n", n, o.metrics[n].Value, o.metrics[n].Unit)
	}
	for _, c := range o.checks {
		fmt.Fprintf(os.Stderr, "CHECK FAILED (%s): %s\n", w.name, c)
	}

	res := result{
		Correct:   len(o.checks) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metric, len(want)),
	}
	for _, m := range want {
		res.Metrics[m.Name] = o.metrics[m.Name]
	}
	rec := record{Workload: w.name, Seed: e.seed, Seconds: e.seconds, Traced: e.traced,
		Host: h, Time: time.Now().UTC().Format(time.RFC3339), Checks: o.checks, Result: res}
	if err := writeRecord(filepath.Join(filepath.Dir(dir), "results"), rec); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: result record: %v\n", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return false
	}
	fmt.Println(string(line))
	return res.Correct
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the stored form of one run: the result plus where and how
// it was measured.
type record struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Seconds  float64  `json:"seconds"`
	Traced   bool     `json:"traced"`
	Host     host     `json:"host"`
	Time     string   `json:"time"`
	Checks   []string `json:"failed_checks,omitempty"`
	Result   result   `json:"result"`
}

func writeRecord(dir string, rec record) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	trace := 0
	if rec.Traced {
		trace = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", rec.Workload, rec.Seed, trace)
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

// nproc is the number of clients, workers and connections the
// workloads use: one per CPU the process may run on.
func nproc() int { return runtime.GOMAXPROCS(0) }
