// Command bench is the repository's benchmark: four workloads over the
// spine — three that serve the paper's figures over a real socket at a
// fixed arrival rate (cache path, exact gather/kernel path, segment
// sketch path) and one that runs campaign → store → segment → mount —
// measured end to end and, with -trace 1, layer by layer. See README.md
// in this directory for the glossary; BENCHMARK.json at the repository
// root declares every workload and metric by name.
//
//	go run ./bench -seed 1                          all workloads, end-to-end metrics
//	go run ./bench -seed 1 -traced                  all workloads, per-layer metrics + span files
//	go run ./bench -workload spine -seed 3 -seconds 20 -trace 0
//	go run ./bench -check 3                         two sets of three runs each, gaps against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// result is one run of one workload.
type result struct {
	workload          string
	attempted, failed int
	firstFailure      string
	// invalid lists why the run did not exercise what the workload is
	// for; its numbers are then not printed.
	invalid []string
	// warnings are what the box did to the run (late generator, a stall
	// that read as backlog); they go to standard error and fail nothing.
	warnings []string
	metrics  map[string]float64
	notes    []string
}

// fail counts one failed operation.
func (r *result) fail(format string, args ...any) {
	if r.failed == 0 {
		r.firstFailure = fmt.Sprintf(format, args...)
	}
	r.failed++
}

// specMetric is one metric as BENCHMARK.json declares it.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	raw, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(raw, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// runWorkload dispatches by name.
func runWorkload(name string, seed int64, sz sizing, traced bool) (result, error) {
	if name == "spine" {
		return runSpine(seed, sz, traced)
	}
	for _, spec := range serveSpecs {
		if spec.name == name {
			return runServe(spec, seed, sz, traced)
		}
	}
	return result{}, fmt.Errorf("bench: unknown workload %q", name)
}

// reportLine is the last line of a run's standard output.
type reportLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints a run: every declared metric of the mode by name with
// its unit, then the JSON line. It returns an error when the result
// and BENCHMARK.json disagree about which metrics exist.
func report(spec benchSpec, res result, traced bool) error {
	declared := spec.EndToEnd
	if traced {
		declared = spec.PerLayer
	}
	line := reportLine{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	known := map[string]bool{}
	fmt.Printf("== %s\n", res.workload)
	for _, m := range declared {
		known[m.Name] = true
		v, ok := res.metrics[m.Name]
		if !ok && !traced {
			return fmt.Errorf("bench: workload %s did not produce end-to-end metric %s", res.workload, m.Name)
		}
		// A per-layer metric a workload does not produce reads 0: the
		// layer is not on that workload's path.
		line.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		fmt.Printf("%-34s %14.4f %s\n", m.Name, v, m.Unit)
	}
	for _, name := range sortedKeys(res.metrics) {
		if !known[name] {
			return fmt.Errorf("bench: workload %s produced %s, which BENCHMARK.json does not declare", res.workload, name)
		}
	}
	for _, n := range res.notes {
		fmt.Printf("# %s\n", n)
	}
	if res.failed > 0 {
		fmt.Printf("# %d of %d operations failed; first: %s\n", res.failed, res.attempted, res.firstFailure)
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// cpuTimes reads the first line of /proc/stat: the jiffies the
// hypervisor ran someone else while this guest wanted a CPU (steal), and
// all jiffies. ok is false where the file does not exist.
func cpuTimes() (steal, all float64, ok bool) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	fields := strings.Fields(strings.SplitN(string(raw), "\n", 2)[0])
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:9] { // user nice system idle iowait irq softirq steal
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0, false
		}
		if all += v; i == 7 {
			steal = v
		}
	}
	return steal, all, true
}

// sortedKeys returns m's keys in order.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload to run (default: all, in BENCHMARK.json's order)")
	seed := flag.Int64("seed", 1, "workload seed: fixtures and request lists derive from it")
	seconds := flag.Float64("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1: install the wrappers, record spans, print the per-layer metrics")
	traced := flag.Bool("traced", false, "same as -trace 1")
	smoke := flag.Bool("smoke", false, "tiny fixtures; checks that every workload runs, measures nothing")
	check := flag.Int("check", 0, "run two sets of N runs per workload and compare their medians against the bounds")
	specPath := flag.String("spec", "BENCHMARK.json", "path of BENCHMARK.json")
	flag.Parse()

	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	names := []string{*workload}
	if *workload == "" {
		names = names[:0]
		for _, w := range spec.Workloads {
			names = append(names, w.Name)
		}
	}
	if *check > 0 {
		return runCheck(spec, names, *seed, *seconds, *check)
	}

	sz := sizing{seconds: *seconds, smoke: *smoke}
	perLayer := *traced || *trace == 1
	code := 0
	for _, name := range names {
		steal0, all0, _ := cpuTimes()
		res, err := runWorkload(name, *seed, sz, perLayer)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		if steal, all, ok := cpuTimes(); ok && all > all0 {
			res.notes = append(res.notes, fmt.Sprintf("the hypervisor gave %.1f %% of this run's CPU time to other guests (steal)", 100*(steal-steal0)/(all-all0)))
		}
		for _, w := range res.warnings {
			fmt.Fprintf(os.Stderr, "bench: %s: warning: %s\n", name, w)
		}
		if len(res.invalid) > 0 {
			for _, why := range res.invalid {
				fmt.Fprintf(os.Stderr, "bench: %s: invalid run: %s\n", name, why)
			}
			code = 1
			continue
		}
		if err := report(spec, res, perLayer); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if res.failed > 0 {
			code = 1
		}
	}
	return code
}
