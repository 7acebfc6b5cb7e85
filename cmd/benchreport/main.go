// Command benchreport writes the repository benchmark's committed record.
// It reads BENCHMARK.json and runs its command once per declared workload
// for each seed in seeds, untraced, then once more per workload traced at
// the first seed. It writes, per workload, the median, min and max of
// every declared end-to-end metric over the seeds, each run's attempted
// and failed counts, and the traced run's per-layer metrics, stamped with
// the runs' nproc and commit.
//
// A run that exits non-zero, reports correct:false, lacks a declared
// metric, or disagrees with the others on nproc or commit fails the whole
// report, and nothing is written.
//
// Usage, from the repository root:
//
//	benchreport [-out path] [-label text]
//
// Without -out the report goes to the next unused BENCH_<n>.json in the
// working directory, so a run never overwrites a committed record.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// seeds are the untraced runs' seeds, the perfbench README's steadiness
// convention. The traced run uses the first.
var seeds = []int64{11, 12, 13, 14, 15}

// declared is the part of BENCHMARK.json the report reads.
type declared struct {
	Command    []string `json:"command"`
	RunSeconds float64  `json:"run_seconds"`
	Workloads  []entry  `json:"workloads"`
	EndToEnd   []entry  `json:"end_to_end"`
	PerLayer   []entry  `json:"per_layer"`
}

// entry is a named entry of BENCHMARK.json: a workload, or a metric and
// its unit.
type entry struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// metric is one value as the benchmark prints it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run is one benchmark run: its header stamp and its final JSON line.
type run struct {
	Seed   int64
	Nproc  int
	Commit string
	Out    struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}
}

// report is the BENCH_<n>.json schema.
type report struct {
	Label      string                    `json:"label"`
	Command    []string                  `json:"command"`
	RunSeconds float64                   `json:"run_seconds"`
	Seeds      []int64                   `json:"seeds"`
	Nproc      int                       `json:"nproc"`
	Commit     string                    `json:"commit"`
	Workloads  map[string]workloadReport `json:"workloads"`
}

type workloadReport struct {
	// Runs holds each untraced run's counts, in seed order.
	Runs     []runCounts       `json:"runs"`
	EndToEnd map[string]spread `json:"end_to_end"`
	// PerLayer is the traced run's values at TracedSeed.
	TracedSeed int64             `json:"traced_seed"`
	PerLayer   map[string]metric `json:"per_layer"`
}

type runCounts struct {
	Seed      int64 `json:"seed"`
	Attempted int   `json:"attempted"`
	Failed    int   `json:"failed"`
}

// spread summarizes one metric over the seeds; Values are in seed order.
type spread struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Values []float64 `json:"values"`
}

func main() {
	out := flag.String("out", "", "output path (default: the next unused BENCH_<n>.json)")
	label := flag.String("label", "", "report label")
	flag.Parse()
	d, err := readDeclared("BENCHMARK.json")
	fatal(err)
	untraced, traced := map[string][]run{}, map[string]run{}
	for _, w := range d.Workloads {
		for _, s := range seeds {
			untraced[w.Name] = append(untraced[w.Name], measure(d, w.Name, s, 0))
		}
		traced[w.Name] = measure(d, w.Name, seeds[0], 1)
	}
	rep, err := aggregate(d, *label, untraced, traced)
	fatal(err)
	if *out == "" {
		*out, err = nextBenchPath(".")
		fatal(err)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	fatal(err)
	fatal(os.WriteFile(*out, append(data, '\n'), 0o644))
	fmt.Printf("benchreport: wrote %s (nproc=%d commit=%s)\n", *out, rep.Nproc, rep.Commit)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
}

// readDeclared loads and sanity-checks the benchmark declaration.
func readDeclared(path string) (declared, error) {
	var d declared
	data, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(data, &d)
	}
	if err == nil && (len(d.Command) == 0 || d.RunSeconds <= 0 || len(d.Workloads) == 0 || len(d.EndToEnd) == 0 || len(d.PerLayer) == 0) {
		err = fmt.Errorf("needs a command, positive run_seconds, workloads, end_to_end and per_layer metrics")
	}
	if err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// measure runs the declared command for one workload and seed, and exits
// on any failure to run it or read its output.
func measure(d declared, workload string, seed int64, trace int) run {
	name := fmt.Sprintf("%s seed=%d trace=%d", workload, seed, trace)
	fmt.Println("benchreport: running", name)
	cmd := exec.Command(d.Command[0], append(d.Command[1:len(d.Command):len(d.Command)],
		"--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(d.RunSeconds), "--trace", fmt.Sprint(trace))...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	var r run
	if err == nil {
		r, err = parseRun(stdout)
	}
	if err != nil {
		fatal(fmt.Errorf("%s: %w", name, err))
	}
	r.Seed = seed
	return r
}

// parseRun reads a run's "# perfbench ... nproc=N ... commit=C" header
// line and its final JSON line.
func parseRun(stdout []byte) (run, error) {
	var r run
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	for _, field := range strings.Fields(lines[0]) {
		switch k, v, _ := strings.Cut(field, "="); k {
		case "nproc":
			r.Nproc, _ = strconv.Atoi(v)
		case "commit":
			r.Commit = v
		}
	}
	if !strings.HasPrefix(lines[0], "# perfbench ") || r.Nproc <= 0 || r.Commit == "" {
		return r, fmt.Errorf("first line %q is no # perfbench header with nproc and commit", lines[0])
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r.Out); err != nil {
		return r, fmt.Errorf("final line: %w", err)
	}
	return r, nil
}

// aggregate checks every run against the declaration and against each
// other, and builds the report. untraced holds each workload's runs in
// seed order; traced its one traced run.
func aggregate(d declared, label string, untraced map[string][]run, traced map[string]run) (report, error) {
	rep := report{Label: label, Command: d.Command, RunSeconds: d.RunSeconds,
		Seeds: seeds, Workloads: map[string]workloadReport{}}
	stamp := func(w string, r run, want []entry) error {
		name := fmt.Sprintf("%s seed=%d", w, r.Seed)
		if !r.Out.Correct {
			return fmt.Errorf("%s: correct:false", name)
		}
		for _, m := range want {
			if got, ok := r.Out.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				return fmt.Errorf("%s: no %s metric in %s", name, m.Name, m.Unit)
			}
		}
		if rep.Commit == "" {
			rep.Nproc, rep.Commit = r.Nproc, r.Commit
		}
		if r.Nproc != rep.Nproc || r.Commit != rep.Commit {
			return fmt.Errorf("%s: nproc=%d commit=%s, other runs nproc=%d commit=%s",
				name, r.Nproc, r.Commit, rep.Nproc, rep.Commit)
		}
		return nil
	}
	for _, wd := range d.Workloads {
		w, runs := wd.Name, untraced[wd.Name]
		t := traced[w]
		wr := workloadReport{EndToEnd: map[string]spread{}, TracedSeed: t.Seed, PerLayer: map[string]metric{}}
		for _, r := range runs {
			if err := stamp(w, r, d.EndToEnd); err != nil {
				return rep, err
			}
			wr.Runs = append(wr.Runs, runCounts{r.Seed, r.Out.Attempted, r.Out.Failed})
		}
		if err := stamp(w+" traced", t, d.PerLayer); err != nil {
			return rep, err
		}
		for _, m := range d.EndToEnd {
			xs := make([]float64, len(runs))
			for i, r := range runs {
				xs[i] = r.Out.Metrics[m.Name].Value
			}
			wr.EndToEnd[m.Name] = spreadOf(m.Unit, xs)
		}
		for _, m := range d.PerLayer {
			wr.PerLayer[m.Name] = t.Out.Metrics[m.Name]
		}
		rep.Workloads[w] = wr
	}
	return rep, nil
}

// spreadOf is the median (the mean of the middle two for an even count),
// min and max of xs.
func spreadOf(unit string, xs []float64) spread {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	return spread{Unit: unit, Median: (s[(n-1)/2] + s[n/2]) / 2, Min: s[0], Max: s[n-1], Values: xs}
}

// nextBenchPath returns BENCH_<n>.json in dir, n one past the highest
// numbered report already there.
func nextBenchPath(dir string) (string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return "", err
	}
	last := 0
	for _, p := range paths {
		num := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(p), "BENCH_"), ".json")
		if n, err := strconv.Atoi(num); err == nil && n > last {
			last = n
		}
	}
	return filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", last+1)), nil
}
