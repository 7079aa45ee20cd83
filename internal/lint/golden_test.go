package lint

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// goldenFixtures maps each fixture package under testdata/src to the
// analyzer it exercises. The suppress fixture reuses floateq because
// suppression is analyzer-agnostic.
var goldenFixtures = map[string]*Analyzer{
	"norawtime":    NoRawTime,
	"noglobalrand": NoGlobalRand,
	"floateq":      FloatEq,
	"uncheckederr": UncheckedErr,
	"ctxpropagate": CtxPropagate,
	"storeappend":  StoreAppend,
	"suppress":     FloatEq,

	// Flow-aware analyzers (DESIGN.md §13). These fixtures import the
	// real obs/sample/wirecodec packages so the type matching runs
	// against the genuine signatures.
	"spanend":         SpanEnd,
	"goroutineleak":   GoroutineLeak,
	"lockheld":        LockHeld,
	"frameexhaustive": FrameExhaustive,
	"metricname":      MetricName,

	// Module-wide: the fixture's user subpackage and the _test.go files
	// beside both decide what counts as used.
	"unusedexport": UnusedExport,
}

// wantRE pulls the quoted regexps out of a // want "..." comment.
var wantRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// parseWants scans a fixture file for // want comments and returns the
// expected-message regexps per line.
func parseWants(t *testing.T, path string) map[int][]*regexp.Regexp {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wants := map[int][]*regexp.Regexp{}
	for i, line := range strings.Split(string(data), "\n") {
		_, comment, ok := strings.Cut(line, "// want ")
		if !ok {
			continue
		}
		for _, m := range wantRE.FindAllStringSubmatch(comment, -1) {
			re, err := regexp.Compile(m[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want regexp %q: %v", path, i+1, m[1], err)
			}
			wants[i+1] = append(wants[i+1], re)
		}
	}
	return wants
}

// TestGolden runs each analyzer over its fixture package and requires
// the findings to match the // want comments exactly: every want must
// be hit and every finding must be wanted.
func TestGolden(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(goldenFixtures))
	for name := range goldenFixtures {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		az := goldenFixtures[name]
		t.Run(name, func(t *testing.T) {
			// A fixture may hold subpackages (unusedexport's user);
			// every package under it is in the run.
			dir := filepath.Join("testdata", "src", name)
			var pkgs []*Package
			wants := map[string]map[int][]*regexp.Regexp{}
			err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if d.IsDir() {
					pkg, err := loader.LoadDir(path)
					if err == nil {
						pkgs = append(pkgs, pkg)
					}
					return err
				}
				if strings.HasSuffix(path, ".go") {
					abs, err := filepath.Abs(path)
					if err != nil {
						return err
					}
					wants[abs] = parseWants(t, path)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			cfg := &Config{
				Analyzers: []*Analyzer{az},
				Scopes:    map[string]Scope{az.Name: {Include: []string{""}}},
			}
			var findings []Finding
			all, _ := RunWith(cfg, pkgs, RunOptions{})
			for _, f := range all {
				if f.Analyzer == az.Name {
					findings = append(findings, f)
				}
			}

			matched := map[string]bool{}
			for _, f := range findings {
				hit := false
				for _, re := range wants[f.Pos.Filename][f.Pos.Line] {
					if re.MatchString(f.Message) {
						hit = true
						matched[fmt.Sprintf("%s:%d:%s", f.Pos.Filename, f.Pos.Line, re)] = true
					}
				}
				if !hit {
					t.Errorf("unexpected finding: %s", f)
				}
			}
			for file, lines := range wants {
				for line, res := range lines {
					for _, re := range res {
						if !matched[fmt.Sprintf("%s:%d:%s", file, line, re)] {
							t.Errorf("%s:%d: no finding matched want %q", file, line, re)
						}
					}
				}
			}
		})
	}
}
