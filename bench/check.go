package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// -check N answers "is this benchmark steady enough to carry its own
// bounds": it runs the same binary in two sets of N runs per workload
// (seeds seed..seed+N-1 in both, the sets interleaved so drift hits
// both alike), and compares the sets' medians metric by metric. Two
// sets of the same code must agree within the bound a later change
// will be held to.

// checkRun is one child invocation.
type checkRun struct {
	Workload string             `json:"workload"`
	Set      string             `json:"set"`
	Seed     int64              `json:"seed"`
	Correct  bool               `json:"correct"`
	Metrics  map[string]float64 `json:"metrics"`
}

// checkRow is one (workload, metric) comparison.
type checkRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	MedianA  float64 `json:"median_a"`
	MedianB  float64 `json:"median_b"`
	// Gap is how much worse the worse set's median is, as a share of
	// the better one's.
	Gap float64 `json:"gap"`
	// SpreadA and SpreadB are each set's interquartile distance as a
	// share of its median.
	SpreadA float64 `json:"spread_a"`
	SpreadB float64 `json:"spread_b"`
	Bound   float64 `json:"bound"`
	OK      bool    `json:"ok"`
}

type checkEnv struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

type checkReport struct {
	Env     checkEnv   `json:"env"`
	Seconds float64    `json:"seconds"`
	Rows    []checkRow `json:"rows"`
	Runs    []checkRun `json:"runs"`
}

func environment() checkEnv {
	env := checkEnv{Commit: "unknown", GoVersion: runtime.Version(), CPU: "unknown",
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return env
}

// invoke runs this binary once and parses the last line of its output.
func invoke(workload string, seed int64, seconds float64) (reportLine, error) {
	var line reportLine
	self, err := os.Executable()
	if err != nil {
		return line, err
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return line, fmt.Errorf("bench: %s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		return line, fmt.Errorf("bench: %s seed %d: last output line is not the report: %w", workload, seed, err)
	}
	return line, nil
}

func runCheck(spec benchSpec, workloads []string, seed int64, seconds float64, n int) int {
	rep := checkReport{Env: environment(), Seconds: seconds}
	values := map[string][]float64{} // workload/set/metric → values
	for _, w := range workloads {
		for i := 0; i < n; i++ {
			for _, set := range []string{"a", "b"} {
				s := seed + int64(i)
				line, err := invoke(w, s, seconds)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					return 1
				}
				run := checkRun{Workload: w, Set: set, Seed: s, Correct: line.Correct, Metrics: map[string]float64{}}
				for name, m := range line.Metrics {
					run.Metrics[name] = m.Value
					key := w + "/" + set + "/" + name
					values[key] = append(values[key], m.Value)
				}
				rep.Runs = append(rep.Runs, run)
				fmt.Fprintf(os.Stderr, "bench: check %s set %s seed %d done\n", w, set, s)
			}
		}
	}
	code := 0
	fmt.Printf("%-18s %-14s %12s %12s %8s %8s %8s %6s\n", "workload", "metric", "median a", "median b", "gap", "iqr a", "iqr b", "bound")
	for _, w := range workloads {
		for _, m := range spec.EndToEnd {
			a, b := values[w+"/a/"+m.Name], values[w+"/b/"+m.Name]
			q1a, medA, q3a := quartiles(a)
			q1b, medB, q3b := quartiles(b)
			row := checkRow{Workload: w, Metric: m.Name, Unit: m.Unit, MedianA: medA, MedianB: medB,
				SpreadA: (q3a - q1a) / medA, SpreadB: (q3b - q1b) / medB, Bound: m.Bound}
			better, worse := min(medA, medB), max(medA, medB)
			if m.Better == "higher" {
				row.Gap = (worse - better) / worse
			} else {
				row.Gap = (worse - better) / better
			}
			row.OK = row.Gap <= m.Bound
			mark := ""
			if !row.OK {
				mark, code = "  BEYOND BOUND", 1
			}
			fmt.Printf("%-18s %-14s %12.4f %12.4f %8.4f %8.4f %8.4f %6.2f%s\n",
				w, m.Name, medA, medB, row.Gap, row.SpreadA, row.SpreadB, m.Bound, mark)
			rep.Rows = append(rep.Rows, row)
		}
	}
	body, err := json.MarshalIndent(rep, "", "  ")
	if err == nil {
		if err = os.MkdirAll(outDir, 0o755); err == nil {
			err = os.WriteFile(filepath.Join(outDir, "check.json"), append(body, '\n'), 0o644)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("# every run and the environment are in %s/check.json\n", outDir)
	return code
}
