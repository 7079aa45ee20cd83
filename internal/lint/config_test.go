package lint

import (
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoRawTimeObsExemption pins the shape of the norawtime exemption
// for the observability layer: the same fixture full of time.Now /
// time.Since / time.Sleep calls is clean when it claims to live in
// internal/obs and still fails everywhere else under internal/. The
// fixture is re-tagged rather than duplicated so the exemption is
// proven against real analyzer findings, not just Scope.Matches.
func TestNoRawTimeObsExemption(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(filepath.Join("testdata", "src", "norawtime"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()

	runAs := func(rel string) []Finding {
		clone := *pkg
		clone.RelPath = rel
		var out []Finding
		findings, _ := RunWith(cfg, []*Package{&clone}, RunOptions{})
		for _, f := range findings {
			if f.Analyzer == NoRawTime.Name {
				out = append(out, f)
			}
		}
		return out
	}

	if got := runAs("internal/obs"); len(got) != 0 {
		t.Errorf("internal/obs must be exempt from norawtime, got %d finding(s): %v", len(got), got)
	}
	// Sibling packages — including ones that route timing through obs —
	// keep the full contract: a plain time.Now() still fails there.
	// internal/admit is pinned explicitly: the admission layer was built
	// clock-free (injected Clock, obs.Time) precisely so it would NOT
	// need an exemption, and this keeps anyone from quietly adding one.
	for _, rel := range []string{
		"internal/measure", "internal/store", "internal/obsidian",
		"internal/admit",
		// The distributed campaign plane and its wire codec are also
		// clock-free by construction — lease expiry reads an injected
		// Clock and the reaper/heartbeats pace on obs.After — so
		// neither may ever grow a norawtime exemption.
		"internal/cluster", "internal/wirecodec",
		// The mmap-backed segment reader and the quantile sketches are
		// pure functions of the bytes on disk; if either ever wanted
		// the clock it would break replayability of figure queries, so
		// the exemption list must never grow them.
		"internal/segment", "internal/sketch",
		// So is the byte vocabulary all three are written in.
		"internal/binfmt",
		// Every simulated measurement draws from this package's seeded
		// stream; a clock anywhere in it would make campaigns unreplayable.
		"internal/detrand",
	} {
		if got := runAs(rel); len(got) == 0 {
			t.Errorf("norawtime found nothing in %s; the obs exemption leaked", rel)
		}
	}
}

// TestCtxPropagateCoversAdmissionAndLoad pins the ctxpropagate scope:
// the admission controller and the distributed campaign plane ship
// goroutine-spawning / channel-blocking APIs and must stay inside the
// analyzer's Include list.
func TestCtxPropagateCoversAdmissionAndLoad(t *testing.T) {
	scope := DefaultConfig().Scopes[CtxPropagate.Name]
	for _, rel := range []string{
		"internal/measure", "internal/serve", "internal/admit",
		"internal/cluster", "internal/segment",
	} {
		if !scope.Matches(rel) {
			t.Errorf("ctxpropagate scope must cover %s", rel)
		}
	}
	if scope.Matches("internal/stats") {
		t.Error("ctxpropagate scope unexpectedly covers internal/stats")
	}
}

// TestAnalyzerSetPinned pins the exact analyzer roster. Dropping one
// silently (a merge artifact, a config refactor) would pass every other
// test — the fixtures run analyzers one at a time — so the roster
// itself is part of the contract.
func TestAnalyzerSetPinned(t *testing.T) {
	want := []string{
		"norawtime", "noglobalrand", "floateq", "uncheckederr",
		"ctxpropagate", "storeappend",
		"spanend", "goroutineleak", "lockheld", "frameexhaustive", "metricname",
		"unusedexport",
	}
	cfg := DefaultConfig()
	if len(cfg.Analyzers) != len(want) {
		t.Fatalf("DefaultConfig has %d analyzers, want %d", len(cfg.Analyzers), len(want))
	}
	for i, az := range cfg.Analyzers {
		if az.Name != want[i] {
			t.Errorf("Analyzers[%d] = %s, want %s", i, az.Name, want[i])
		}
		if _, ok := cfg.Scopes[az.Name]; !ok {
			t.Errorf("analyzer %s has no scope entry", az.Name)
		}
	}
}

// TestNoRawTimeExemptionsPinned pins the norawtime Exclude list
// verbatim. Every entry is a policy decision documented in
// DefaultConfig; growing the list is how determinism erodes, so a new
// exemption must show up here — in review — and not only in config.go.
func TestNoRawTimeExemptionsPinned(t *testing.T) {
	want := []string{"internal/serve", "internal/obs"}
	got := DefaultConfig().Scopes[NoRawTime.Name].Exclude
	if len(got) != len(want) {
		t.Fatalf("norawtime Exclude = %v, want exactly %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("norawtime Exclude[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

// TestScopesNameExistingPackages keeps the scopes honest as packages
// come and go: every non-empty Include/Exclude entry must name a
// directory under the module root with Go files in or beneath it. An
// entry for a deleted package would otherwise linger as a dead
// exemption, silently waiting to exempt whatever reuses the name.
func TestScopesNameExistingPackages(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	for _, az := range cfg.Analyzers {
		scope := cfg.Scopes[az.Name]
		for _, list := range [][]string{scope.Include, scope.Exclude} {
			for _, rel := range list {
				if rel != "" && !hasGoFiles(filepath.Join(loader.ModRoot, filepath.FromSlash(rel))) {
					t.Errorf("%s scope names %q, which holds no Go package", az.Name, rel)
				}
			}
		}
	}
}

// hasGoFiles reports whether dir exists and has a .go file in it or in
// any directory beneath it.
func hasGoFiles(dir string) bool {
	found := false
	// A missing or unreadable dir ends the walk with found still false,
	// which is the answer; the walk error itself adds nothing.
	_ = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			found = true
			return fs.SkipAll
		}
		return nil
	})
	return found
}

// TestFlowAnalyzersCoverEverything pins the flow-aware analyzers to a
// module-wide scope with no excludes: their exceptions are taken in
// place with lint:ignore plus a reason, never by carving out packages.
func TestFlowAnalyzersCoverEverything(t *testing.T) {
	cfg := DefaultConfig()
	for _, az := range []*Analyzer{SpanEnd, GoroutineLeak, LockHeld, FrameExhaustive, MetricName} {
		scope := cfg.Scopes[az.Name]
		if !scope.Matches("") || !scope.Matches("internal/store") || !scope.Matches("cmd/cloudyvet") {
			t.Errorf("%s must apply module-wide, got %+v", az.Name, scope)
		}
		if len(scope.Exclude) != 0 {
			t.Errorf("%s must have no package-level excludes, got %v", az.Name, scope.Exclude)
		}
	}
}
