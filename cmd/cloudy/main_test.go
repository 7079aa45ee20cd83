package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/segment"
)

// captureStdout redirects os.Stdout for the duration of fn.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		buf := make([]byte, 1<<20)
		var out []byte
		for {
			n, err := r.Read(buf)
			out = append(out, buf[:n]...)
			if err != nil {
				break
			}
		}
		done <- string(out)
	}()
	ferr := fn()
	w.Close()
	os.Stdout = old
	out := <-done
	r.Close()
	if ferr != nil {
		t.Fatalf("command failed: %v\noutput:\n%s", ferr, out)
	}
	return out
}

func TestCmdWorld(t *testing.T) {
	out := captureStdout(t, func() error { return cmdWorld([]string{"-seed", "3"}) })
	for _, want := range []string{"Table 1", "195", "tier-1 carriers", "access ISPs"} {
		if !strings.Contains(out, want) {
			t.Errorf("world output missing %q", want)
		}
	}
}

func TestExportAnalyzeRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("full CLI round trip in -short mode")
	}
	dir := t.TempDir()
	pings := filepath.Join(dir, "p.csv")
	traces := filepath.Join(dir, "t.jsonl")

	// Streamed export at a tiny scale.
	err := cmdExport(context.Background(), []string{
		"-seed", "3", "-scale", "0.01", "-cycles", "1", "-stream",
		"-pings", pings, "-traces", traces,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(pings); err != nil || fi.Size() == 0 {
		t.Fatalf("ping export missing: %v", err)
	}

	// Re-analysis over the exported files.
	out := captureStdout(t, func() error {
		return cmdAnalyze([]string{"-seed", "3", "-pings", pings, "-traces", traces})
	})
	for _, want := range []string{"Figure 3", "Figure 10", "Figure 12"} {
		if !strings.Contains(out, want) {
			t.Errorf("analyze output missing %q", want)
		}
	}

	// The same export sealed into segment files, validated, and mounted.
	segDir := filepath.Join(dir, "seg")
	err = cmdSegment(context.Background(), []string{
		"-seed", "3", "-pings", pings, "-traces", traces, "-out", segDir, "-check",
	})
	if err != nil {
		t.Fatal(err)
	}
	rd, err := segment.Open(segDir, segment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	if len(rd.LatencyMap(1)) == 0 {
		t.Error("mounted segments answer an empty latency map")
	}
}

func TestExportValidation(t *testing.T) {
	if err := cmdExport(context.Background(), []string{"-pings", "x"}); err == nil {
		t.Error("missing -traces should fail")
	}
	if err := cmdExport(context.Background(), []string{
		"-pings", "a", "-traces", "b", "-format", "xml"}); err == nil {
		t.Error("unknown format should fail")
	}
	if err := cmdExport(context.Background(), []string{
		"-pings", "a", "-traces", "b", "-format", "atlas", "-stream"}); err == nil {
		t.Error("-stream with atlas format should fail")
	}
	if err := cmdAnalyze([]string{"-pings", "only"}); err == nil {
		t.Error("analyze without -traces should fail")
	}
	if err := cmdAnalyze([]string{"-pings", "/nope/a", "-traces", "/nope/b"}); err == nil {
		t.Error("analyze with missing files should fail")
	}
}

func TestServeValidation(t *testing.T) {
	if err := cmdServe(context.Background(), []string{"-pings", "only.csv"}); err == nil {
		t.Error("serve with -pings but no -traces should fail")
	}
	if err := cmdServe(context.Background(), []string{"-traces", "only.jsonl"}); err == nil {
		t.Error("serve with -traces but no -pings should fail")
	}
	if err := cmdServe(context.Background(), []string{
		"-pings", "/nope/a.csv", "-traces", "/nope/b.jsonl"}); err == nil {
		t.Error("serve with missing export files should fail")
	}
	// Flag conflicts must be refused up front — the error names the
	// conflict, not a campaign or a mount that was attempted first.
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-exact"}, "-exact only applies to -segments"},
		{[]string{"-segments", "/nope/seg", "-reseal", "1s"}, "cannot be combined"},
		{[]string{"-segments", "/nope/seg", "-pings", "a.csv", "-traces", "b.jsonl"}, "cannot be combined"},
	} {
		err := cmdServe(context.Background(), tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("serve %v = %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
}
