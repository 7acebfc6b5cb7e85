package main

import (
	"os"
	"path/filepath"
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
