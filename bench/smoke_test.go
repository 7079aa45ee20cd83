package main

import (
	"os"
	"testing"
)

// TestMain moves to the repository root, the working directory of
// `go run ./bench`: the benchmark reads BENCHMARK.json and writes under
// bench/out relative to it.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// TestSmokeEveryWorkload runs all four workloads at smoke size, plain
// and traced, and holds the result against BENCHMARK.json: every
// declared metric is produced, nothing undeclared is, every operation
// is correct and no validity check trips.
func TestSmokeEveryWorkload(t *testing.T) {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Fatalf("BENCHMARK.json paths = %v, want [bench]", spec.Paths)
	}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(w.Name, 1, smokeSizing, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if len(res.invalid) > 0 {
				t.Errorf("%s traced=%v: invalid run: %v", w.Name, traced, res.invalid)
			}
			if res.failed > 0 || res.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %s", w.Name, traced, res.failed, res.attempted, res.firstFailure)
			}
			if err := report(spec, res, traced); err != nil {
				t.Errorf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !traced {
				for _, m := range spec.EndToEnd {
					if res.metrics[m.Name] <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, m.Name, res.metrics[m.Name])
					}
				}
			}
		}
	}
}
