// Package lint is cloudyvet's analyzer framework: a stdlib-only static
// analysis pass (go/parser + go/types, no external dependencies) that
// enforces the repo-specific determinism and concurrency contract no
// generic tool checks.
//
// The reproduction's validity rests on one invariant: every figure in
// the paper pipeline must be bit-for-bit reproducible from a seed.
// Simulation and analysis code therefore must never read the wall
// clock, draw from the global math/rand source, or compare floats with
// ==. The analyzers here encode that contract:
//
//   - norawtime: no time.Now/Since/Sleep/... in sim/analysis packages;
//     virtual or injected clocks only.
//   - noglobalrand: no global math/rand draws and no time-seeded
//     sources anywhere; seeded *rand.Rand must be threaded through.
//   - floateq: no ==/!= on floating-point operands in the statistics,
//     analysis and store packages.
//   - uncheckederr: no silently discarded errors on dataset, store and
//     campaign sink write paths.
//   - ctxpropagate: exported functions in the concurrent packages that
//     spawn goroutines or block on channels must accept and forward a
//     context.Context.
//   - unusedexport: every export under internal/ has a user outside its
//     own package's tests.
//
// Findings print as "file:line:col: analyzer: message". Intentional
// exceptions are written in place with a "//lint:ignore <analyzer>
// <reason>" directive, whole packages are exempted by the per-analyzer
// scopes in DefaultConfig, and pre-existing findings can be
// grandfathered in a baseline file that fails the build only when a
// (file, analyzer) count grows.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"
	"time"
)

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name is the identifier used in findings, lint:ignore directives,
	// baseline entries and scope configuration.
	Name string
	// Doc is a one-line description of the invariant enforced.
	Doc string
	// Run inspects pass.Files and reports findings via pass.Reportf.
	Run func(pass *Pass)
}

// Pass carries one package's parsed and type-checked state to an
// analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's non-test source files.
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// RelPath is the package directory relative to the module root
	// ("" for the root package).
	RelPath string

	findings *[]Finding
	module   *module
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// PkgPathOf resolves e to the import path of the package it names, or
// "" when e is not a package qualifier (the ident "time" in time.Now).
func (p *Pass) PkgPathOf(e ast.Expr) string {
	id, ok := e.(*ast.Ident)
	if !ok {
		return ""
	}
	if pn, ok := p.Info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

// Finding is one diagnostic.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String formats the finding as file:line:col: analyzer: message.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// RunOptions tunes a lint run.
type RunOptions struct {
	// Workers is the number of packages analyzed concurrently; values
	// below 1 mean serial. Packages are independent after loading (each
	// analyzer reads its own package's ASTs and the shared, immutable
	// type info), so the pool is a plain bounded fan-out.
	Workers int
	// Clock, when set, samples a monotonic stopwatch (elapsed time since
	// an arbitrary epoch) around each analyzer run to produce per-
	// analyzer timings. It is injected by the driver because this
	// package is itself under norawtime: the lint framework must not
	// read the wall clock it polices. Nil disables timing.
	Clock func() time.Duration
}

// AnalyzerTiming is the aggregate cost of one analyzer across every
// package it ran on. With Workers > 1 the Elapsed values are summed
// per-goroutine stopwatch time, i.e. CPU-ish cost, not wall clock.
type AnalyzerTiming struct {
	Name     string
	Elapsed  time.Duration
	Packages int
	Findings int
}

// RunWith applies every analyzer of cfg to every package, honouring
// scopes and inline suppressions, and returns the findings sorted by
// position, with optional per-analyzer timing. Baseline filtering is a
// separate step (Baseline.Filter) so callers can regenerate baselines
// from the raw finding set. Findings are identical to a serial run:
// per-package results are collected in package order and sorted by
// position at the end, and each worker touches only its own package's
// state (unusedexport's module index is built once, under a sync.Once).
func RunWith(cfg *Config, pkgs []*Package, opts RunOptions) ([]Finding, []AnalyzerTiming) {
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > len(pkgs) {
		workers = len(pkgs)
	}

	var mu sync.Mutex
	timings := map[string]*AnalyzerTiming{}
	record := func(name string, d time.Duration, findings int) {
		mu.Lock()
		defer mu.Unlock()
		t := timings[name]
		if t == nil {
			t = &AnalyzerTiming{Name: name}
			timings[name] = t
		}
		t.Elapsed += d
		t.Packages++
		t.Findings += findings
	}

	mod := &module{pkgs: pkgs}
	perPkg := make([][]Finding, len(pkgs))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				perPkg[i] = runPackage(cfg, pkgs[i], mod, opts.Clock, record)
			}
		}()
	}
	for i := range pkgs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	var all []Finding
	for _, fs := range perPkg {
		all = append(all, fs...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})

	var ts []AnalyzerTiming
	for _, t := range timings {
		ts = append(ts, *t)
	}
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].Elapsed != ts[j].Elapsed {
			return ts[i].Elapsed > ts[j].Elapsed
		}
		return ts[i].Name < ts[j].Name
	})
	return all, ts
}

// runPackage applies cfg's analyzers to one package.
func runPackage(cfg *Config, pkg *Package, mod *module, clock func() time.Duration, record func(string, time.Duration, int)) []Finding {
	sup, all := collectSuppressions(pkg.Fset, pkg.Files)
	for _, az := range cfg.Analyzers {
		if !cfg.Scopes[az.Name].Matches(pkg.RelPath) {
			continue
		}
		var found []Finding
		pass := &Pass{
			Analyzer: az,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			RelPath:  pkg.RelPath,
			findings: &found,
			module:   mod,
		}
		var start time.Duration
		if clock != nil {
			start = clock()
		}
		az.Run(pass)
		kept := 0
		for _, f := range found {
			if !sup.suppressed(f) {
				all = append(all, f)
				kept++
			}
		}
		if clock != nil {
			record(az.Name, clock()-start, kept)
		}
	}
	return all
}

// Scope selects the packages an analyzer applies to, by module-relative
// directory prefix. A package matches when it is under any Include
// prefix and under no Exclude prefix. The empty prefix "" matches every
// package.
type Scope struct {
	Include []string
	Exclude []string
}

// Matches reports whether the module-relative package path rel is in
// scope.
func (s Scope) Matches(rel string) bool {
	in := false
	for _, p := range s.Include {
		if hasPathPrefix(rel, p) {
			in = true
			break
		}
	}
	if !in {
		return false
	}
	for _, p := range s.Exclude {
		if hasPathPrefix(rel, p) {
			return false
		}
	}
	return true
}

// hasPathPrefix reports whether rel equals prefix or sits beneath it on
// a path-segment boundary ("internal/serve" matches "internal" but not
// "inter").
func hasPathPrefix(rel, prefix string) bool {
	if prefix == "" || rel == prefix {
		return true
	}
	return strings.HasPrefix(rel, strings.TrimSuffix(prefix, "/")+"/")
}
