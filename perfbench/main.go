// Command perfbench is the repository benchmark. One process runs one
// workload, measures it end to end (untraced) or layer by layer (traced),
// checks the program's outputs, and prints every metric by name with its
// unit. The last line of standard output is a JSON object:
//
//	{"correct": true, "attempted": 4800, "failed": 2, "metrics": {...}}
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload flow-sweep --seed 42 --seconds 10 --trace 0
//
// See README.md in this directory for the workloads, the metric
// definitions and the mapping from the older BENCH_*.json rows.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// Cold set-ups are measured several times per run: once in the benchmark
// process itself and then in fresh child processes, because the
// conflict-table memo is process-wide and only a new process is cold.
// Cheap set-ups are sampled more often, while the sampling stays within
// setupBudget.
const (
	minSetupSamples = 3
	maxSetupSamples = 15
	setupBudget     = 1500 * time.Millisecond
)

// options are the command-line inputs every workload receives.
type options struct {
	seed     int64
	seconds  float64
	openRate float64
	outDir   string
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	// setup performs the workload's cold set-up in this process and
	// returns its measurement.
	setup func(o options) (setupSample, error)
	// measure runs the untraced timed section and fills the end-to-end
	// metrics.
	measure func(o options, rep *report) error
	// traced runs the layer-by-layer measurement and fills the per-layer
	// metrics.
	traced func(o options, rep *report) error
}

var workloads = map[string]workload{
	"flow-sweep":       flowSweep.workload(),
	"policy-saturated": policySaturated.workload(),
	"grid":             gridWorkload.workload(),
	"serve":            serveWorkload(),
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 42, "workload seed")
	seconds := fs.Float64("seconds", 10, "how long the timed section runs (s)")
	traced := fs.Int("trace", 0, "1 runs the traced, per-layer measurement")
	openRate := fs.Float64("open-rate", 2000, "serve: open-phase request rate (1/s)")
	outDir := fs.String("out", ".bench_build", "directory for span files and sockets")
	child := fs.Bool("setup-child", false, "measure one cold set-up and print it as JSON (used by the benchmark itself)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds <= 0 || *openRate <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds and --open-rate must be positive, --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	o := options{seed: *seed, seconds: *seconds, openRate: *openRate, outDir: *outDir}

	if *child {
		s, err := w.setup(o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: setup:", err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(s); err != nil {
			return 1
		}
		return 0
	}

	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%g trace=%d nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		*name, *seed, *seconds, *traced, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
	rep := newReport()
	var err error
	if *traced == 1 {
		err = w.traced(o, rep)
	} else {
		err = w.measure(o, rep)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := rep.print(stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// commit is the VCS revision the binary was built from, when the build
// saw one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// setupSample is one cold set-up measurement.
type setupSample struct {
	// Seconds is the host time of the whole set-up.
	Seconds float64 `json:"setup_s"`
	// TableBuildSeconds is the part of it spent filling process-wide
	// memos: each scheduler's first construction minus an immediate
	// second one.
	TableBuildSeconds float64 `json:"table_build_s"`
	// TablesBuilt counts the first constructions that paid such a fill.
	TablesBuilt int `json:"tables_built"`
}

// coldSetup measures one set-up in a fresh process.
func coldSetup(o options, workloadName string) (setupSample, error) {
	exe, err := os.Executable()
	if err != nil {
		return setupSample{}, err
	}
	cmd := exec.Command(exe, "--setup-child", "--workload", workloadName,
		"--seed", fmt.Sprint(o.seed), "--out", o.outDir)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return setupSample{}, fmt.Errorf("set-up child: %w", err)
	}
	var s setupSample
	if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), &s); err != nil {
		return setupSample{}, fmt.Errorf("set-up child output: %w", err)
	}
	return s, nil
}

// medianSetup adds fresh-process samples to the in-process one and
// returns the median and the sample count.
func medianSetup(o options, workloadName string, first setupSample) (float64, int, error) {
	xs := []float64{first.Seconds}
	start := time.Now()
	for len(xs) < minSetupSamples || (len(xs) < maxSetupSamples && time.Since(start) < setupBudget) {
		s, err := coldSetup(o, workloadName)
		if err != nil {
			return 0, 0, err
		}
		xs = append(xs, s.Seconds)
	}
	return median(xs), len(xs), nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics, failure counts and correctness
// problems.
type report struct {
	attempted int
	failed    int
	problems  []string
	order     []string
	metrics   map[string]metric
	notes     map[string]string
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, notes: map[string]string{}}
}

// set records a metric; note is printed next to it for people. The unit
// comes from the metric tables, which BENCHMARK.json mirrors.
func (r *report) set(name string, v float64, note string) {
	unit, ok := metricUnit(name)
	if !ok {
		panic("perfbench: metric " + name + " is in no metric table")
	}
	if _, dup := r.metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
	if note != "" {
		r.notes[name] = note
	}
}

// setTail records a percentile metric and names the percentile and
// sample count it came from.
func (r *report) setTail(name string, t tail, scale float64) {
	r.set(name, t.Value*scale, fmt.Sprintf("p%g of %d samples", t.P, t.N))
}

// fillIdle reports 0 for every per-layer metric the workload does not
// measure, so each traced run prints the whole per-layer table.
func (r *report) fillIdle() {
	for _, m := range perLayer {
		if _, ok := r.metrics[m.name]; !ok {
			r.set(m.name, 0, "not measured on this workload")
		}
	}
}

// problem records a failed output check; the run reports correct=false.
func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) print(w io.Writer) error {
	for _, name := range r.order {
		m := r.metrics[name]
		line := fmt.Sprintf("%-32s %16.6g %s", name, m.Value, m.Unit)
		if n := r.notes[name]; n != "" {
			line += "  (" + n + ")"
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "attempted=%d failed=%d\n", r.attempted, r.failed)
	for _, p := range r.problems {
		fmt.Fprintln(w, "CHECK FAILED:", p)
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.problems) == 0, r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(out))
	return err
}

// elapsedSince is host seconds since t.
func elapsedSince(t time.Time) float64 { return time.Since(t).Seconds() }
