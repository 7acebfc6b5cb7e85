package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestNextBenchPath(t *testing.T) {
	dir := t.TempDir()
	check := func(want string) {
		t.Helper()
		got, err := nextBenchPath(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got != filepath.Join(dir, want) {
			t.Errorf("nextBenchPath = %s, want %s", got, want)
		}
	}
	check("BENCH_1.json")
	for _, name := range []string{"BENCH_1.json", "BENCH_2.json", "BENCH_10.json", "BENCH_x.json", "BENCH_3.json.bak"} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	check("BENCH_11.json")
}

// TestRepoBenchmarkDeclaration parses the repository's own BENCHMARK.json,
// so a schema drift there fails the suite rather than the next report.
func TestRepoBenchmarkDeclaration(t *testing.T) {
	d, err := readDeclared("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range append(d.EndToEnd, d.PerLayer...) {
		if m.Name == "" || m.Unit == "" {
			t.Errorf("metric %+v lacks a name or unit", m)
		}
	}
	for _, w := range d.Workloads {
		if w.Name == "" {
			t.Error("a workload has no name")
		}
	}
}

// testDecl declares one workload with two end-to-end metrics and one
// per-layer metric.
func testDecl() declared {
	return declared{
		Command:    []string{"bench"},
		RunSeconds: 10,
		Workloads:  []entry{{Name: "w"}},
		EndToEnd:   []entry{{"wall_s", "s"}, {"alloc_mb", "MB"}},
		PerLayer:   []entry{{"des.events", "count"}},
	}
}

// fakeRun parses the output a benchmark run with these values would print.
func fakeRun(t *testing.T, seed int64, nproc int, correct bool, metrics string) run {
	t.Helper()
	out := fmt.Sprintf("# perfbench workload=w seed=%d seconds=10 trace=0 nproc=%d gomaxprocs=%d go=go1 commit=abc\n"+
		"wall_s 1 s\nattempted=10 failed=1\n"+
		`{"correct":%v,"attempted":10,"failed":1,"metrics":{%s}}`+"\n", seed, nproc, nproc, correct, metrics)
	r, err := parseRun([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	r.Seed = seed
	return r
}

func e2e(wall, alloc float64) string {
	return fmt.Sprintf(`"wall_s":{"value":%g,"unit":"s"},"alloc_mb":{"value":%g,"unit":"MB"}`, wall, alloc)
}

const layer = `"des.events":{"value":7,"unit":"count"}`

func TestAggregateSpread(t *testing.T) {
	for _, c := range []struct {
		name  string
		walls []float64
		want  spread
	}{
		{"odd", []float64{3, 1, 2}, spread{"s", 2, 1, 3, []float64{3, 1, 2}}},
		{"even", []float64{4, 1, 3, 2}, spread{"s", 2.5, 1, 4, []float64{4, 1, 3, 2}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var runs []run
			for i, w := range c.walls {
				runs = append(runs, fakeRun(t, int64(11+i), 2, true, e2e(w, 5)))
			}
			traced := fakeRun(t, 11, 2, true, layer)
			rep, err := aggregate(testDecl(), "x", map[string][]run{"w": runs}, map[string]run{"w": traced})
			if err != nil {
				t.Fatal(err)
			}
			wr := rep.Workloads["w"]
			if got := wr.EndToEnd["wall_s"]; !reflect.DeepEqual(got, c.want) {
				t.Errorf("wall_s = %+v, want %+v", got, c.want)
			}
			if got := wr.EndToEnd["alloc_mb"]; got.Median != 5 || got.Min != 5 || got.Max != 5 || got.Unit != "MB" {
				t.Errorf("alloc_mb = %+v", got)
			}
			if len(wr.Runs) != len(c.walls) || wr.Runs[0] != (runCounts{11, 10, 1}) {
				t.Errorf("runs = %+v", wr.Runs)
			}
			if wr.TracedSeed != 11 || wr.PerLayer["des.events"] != (metric{7, "count"}) {
				t.Errorf("per-layer = %d %+v", wr.TracedSeed, wr.PerLayer)
			}
			if rep.Nproc != 2 || rep.Commit != "abc" || rep.Label != "x" {
				t.Errorf("stamp = nproc %d commit %s label %s", rep.Nproc, rep.Commit, rep.Label)
			}
		})
	}
}

func TestAggregateRejects(t *testing.T) {
	good := func(seed int64) run { return fakeRun(t, seed, 2, true, e2e(1, 1)) }
	traced := fakeRun(t, 11, 2, true, layer)
	for _, c := range []struct {
		name   string
		runs   []run
		traced run
		want   string
	}{
		{"incorrect", []run{good(11), fakeRun(t, 12, 2, false, e2e(1, 1))}, traced, "correct:false"},
		{"missing metric", []run{good(11), fakeRun(t, 12, 2, true, `"wall_s":{"value":1,"unit":"s"}`)}, traced, "no alloc_mb"},
		{"wrong unit", []run{fakeRun(t, 11, 2, true, `"wall_s":{"value":1,"unit":"ms"},"alloc_mb":{"value":1,"unit":"MB"}`)}, traced, "no wall_s"},
		{"missing per-layer metric", []run{good(11)}, fakeRun(t, 11, 2, true, e2e(1, 1)), "no des.events"},
		{"nproc mismatch", []run{good(11), fakeRun(t, 12, 4, true, e2e(1, 1))}, traced, "nproc=4"},
		{"traced nproc mismatch", []run{good(11)}, fakeRun(t, 11, 1, true, layer), "nproc=1"},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, err := aggregate(testDecl(), "", map[string][]run{"w": c.runs}, map[string]run{"w": c.traced})
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want one naming %q", err, c.want)
			}
		})
	}
}

func TestParseRunRejects(t *testing.T) {
	for name, out := range map[string]string{
		"no header":   `{"correct":true}`,
		"no commit":   "# perfbench workload=w nproc=2\n{\"correct\":true}",
		"no nproc":    "# perfbench workload=w commit=abc\n{\"correct\":true}",
		"no json":     "# perfbench nproc=2 commit=abc\nattempted=1 failed=0",
		"empty input": "",
	} {
		if _, err := parseRun([]byte(out)); err == nil {
			t.Errorf("%s: parseRun accepted %q", name, out)
		}
	}
}
