package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/geo"
	"repro/internal/serve"
	"repro/internal/store"
)

// The oracle holds the answer every request of a run must get. At
// set-up it asks the memory store for each distinct query — through the
// gather functions and the analysis kernels the store's own Querier
// methods are made of — and encodes the result through the serve DTOs.
// Many keys ask for the same query (min, points, continent and
// out-of-range `to` values only shape the encoding), so the expensive
// part is computed once per class and the keys share it.

// Serve's defaults for parameters a request leaves out.
const (
	defaultMinSamples = 10
	defaultCDFPoints  = 64
)

// Tolerances of a sketch answer against the exact one, as pinned in
// internal/segment/tolerance_test.go.
const (
	epsMedianRel   = 0.01
	epsCDFFraction = 0.02
	epsCDFCurve    = 0.03
	epsDiffMs      = 3.0
	epsShiftAbs    = 0.05
	// minShiftSamples is the smaller side a changepoint pair needs for
	// its shift score to be compared at all.
	minShiftSamples = 16
	// minCurveSamples is the group size from which a CDF's fractions and
	// curve are compared: below it one step of the empirical CDF is a
	// third of the curve tolerance or more.
	minCurveSamples = 100
)

// class identifies the query behind a request: what the store is asked,
// with everything that only shapes the encoding stripped. Changepoint
// uses both windows (before, after the split); the others only a.
type class struct {
	fig      figure
	platform string
	a, b     store.Window
}

// exact is a class's answer from the memory store.
type exact struct {
	latmap []analysis.CountryLatency // at min = 1; requests filter by their own min
	cdf    []analysis.ContinentDistribution
	pdiff  []analysis.PlatformDiff
	chg    []store.ChangepointEntry
	peer   []analysis.InterconnectShare
}

// canonical maps the window variants that select the same rows of the
// bench store onto one value.
func canonical(w store.Window) store.Window {
	if w.From < 0 {
		w.From = 0
	}
	if w.To <= 0 || w.To >= fixtureCycles {
		w.To = 0
	}
	return w
}

// changepointWindows mirrors store.Changepoint's window arithmetic.
func changepointWindows(at, width int) (before, after store.Window) {
	if at <= 0 {
		at = fixtureCycles / 2
	}
	before, after = store.Window{To: at}, store.Window{From: at}
	if width > 0 {
		if f := at - width; f > 0 {
			before.From = f
		}
		after.To = at + width
	}
	return before, after
}

func classOf(r request) class {
	c := class{fig: r.fig, a: canonical(r.win)}
	switch r.fig {
	case figCDF:
		c.platform = r.platform
	case figChangepoint:
		c.platform = r.platform
		before, after := changepointWindows(r.at, r.width)
		c.a, c.b = canonical(before), canonical(after)
	}
	return c
}

// stageTimes is how long each stage of one class's computation took;
// the probe pass reads it, the oracle ignores it.
type stageTimes struct {
	gather, kernel time.Duration
	rows           int
}

// computeClass answers one class from the memory store, stage by stage.
func computeClass(st *store.Store, c class) (exact, stageTimes) {
	var e exact
	var t stageTimes
	count := func(vecs map[string][]float64) {
		for _, xs := range vecs {
			t.rows += len(xs)
		}
	}
	countCont := func(vecs map[geo.Continent][]float64) {
		for _, xs := range vecs {
			t.rows += len(xs)
		}
	}
	start := time.Now()
	switch c.fig {
	case figLatencyMap:
		vecs := st.CountrySamplesWindow("speedchecker", c.a)
		t.gather = time.Since(start)
		count(vecs)
		e.latmap = analysis.LatencyMapFrom(vecs, 1)
	case figCDF:
		vecs := st.ContinentSamplesWindow(c.platform, c.a)
		t.gather = time.Since(start)
		countCont(vecs)
		e.cdf = analysis.ContinentDistributionsFrom(vecs)
	case figPlatformDiff:
		sc := st.ContinentSamplesWindow("speedchecker", c.a)
		at := st.ContinentSamplesWindow("atlas", c.a)
		t.gather = time.Since(start)
		countCont(sc)
		countCont(at)
		e.pdiff = analysis.PlatformComparisonFrom(sc, at)
	case figChangepoint:
		pre := st.PairSamples(c.platform, c.a)
		post := st.PairSamples(c.platform, c.b)
		t.gather = time.Since(start)
		count(pre)
		count(post)
		e.chg = store.ChangepointFrom(pre, post)
	case figPeering:
		e.peer = st.PeeringSharesWindow(c.a)
	}
	t.kernel = time.Since(start) - t.gather
	return e, t
}

// encodeBody renders a DTO slice the way serve does: one JSON document
// and a newline, or under NDJSON one object per line.
func encodeBody[T any](xs []T, ndjson bool) ([]byte, error) {
	if !ndjson {
		body, err := json.Marshal(xs)
		return append(body, '\n'), err
	}
	var buf []byte
	for _, x := range xs {
		line, err := json.Marshal(x)
		if err != nil {
			return nil, err
		}
		buf = append(append(buf, line...), '\n')
	}
	return buf, nil
}

// decodeBody is encodeBody's inverse.
func decodeBody[T any](body []byte, ndjson bool) ([]T, error) {
	var out []T
	if !ndjson {
		err := json.Unmarshal(body, &out)
		return out, err
	}
	for _, line := range bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var x T
		if err := json.Unmarshal(line, &x); err != nil {
			return nil, err
		}
		out = append(out, x)
	}
	return out, nil
}

// shaped applies the request's own parameters to its class's answer:
// the latency-map sample floor and the CDF continent filter.
func shaped(r request, e exact) exact {
	switch r.fig {
	case figLatencyMap:
		floor := r.min
		if floor <= 0 {
			floor = defaultMinSamples
		}
		var kept []analysis.CountryLatency
		for _, row := range e.latmap {
			if row.Samples >= floor {
				kept = append(kept, row)
			}
		}
		e.latmap = kept
	case figCDF:
		if r.continent != "" {
			var kept []analysis.ContinentDistribution
			for _, d := range e.cdf {
				if d.Continent.String() == r.continent {
					kept = append(kept, d)
				}
			}
			e.cdf = kept
		}
	}
	return e
}

// encodeExact renders the exact answer to r (e already shaped) through
// the serve DTOs.
func encodeExact(r request, e exact) ([]byte, error) {
	switch r.fig {
	case figLatencyMap:
		return encodeBody(serve.LatencyMapDTO(e.latmap), r.ndjson)
	case figCDF:
		points := r.points
		if points <= 0 {
			points = defaultCDFPoints
		}
		return encodeBody(serve.CDFDTO(e.cdf, points), r.ndjson)
	case figPlatformDiff:
		return encodeBody(serve.PlatformDiffDTO(e.pdiff), r.ndjson)
	case figChangepoint:
		return encodeBody(e.chg, r.ndjson)
	default:
		return encodeBody(serve.PeeringSharesDTO(e.peer), r.ndjson)
	}
}

// reference is the answer one request must get.
type reference struct {
	req  request
	body []byte
	// near, when set, is the exact answer a body that is not byte-equal
	// may still be within the sketch tolerances of. Set only where the
	// segment reader may answer from sketches: serve-cold-sketch
	// requests whose windows are partition-aligned.
	near *exact
}

// mismatch describes a body that is not the reference's.
func (ref reference) mismatch(body []byte) error {
	return fmt.Errorf("body differs from the memory store's answer (%d bytes, want %d)", len(body), len(ref.body))
}

// oracle maps every distinct request of a plan to its reference.
type oracle struct {
	refs []reference
}

// newOracle computes the references of p's distinct requests against
// st. sketch marks a run whose server answers aligned requests from
// sketches. Classes are computed nproc at a time.
func newOracle(st *store.Store, p plan, sketch bool, workers int) (*oracle, error) {
	byClass := map[class]exact{}
	var order []class
	for _, r := range p.distinct {
		c := classOf(r)
		if _, seen := byClass[c]; !seen {
			byClass[c] = exact{}
			order = append(order, c)
		}
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := make(chan class)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range next {
				e, _ := computeClass(st, c)
				mu.Lock()
				byClass[c] = e
				mu.Unlock()
			}
		}()
	}
	for _, c := range order {
		next <- c
	}
	close(next)
	wg.Wait()

	o := &oracle{refs: make([]reference, len(p.distinct))}
	for i, r := range p.distinct {
		e := shaped(r, byClass[classOf(r)])
		body, err := encodeExact(r, e)
		if err != nil {
			return nil, fmt.Errorf("bench: encoding reference of %s: %w", r.path(), err)
		}
		o.refs[i] = reference{req: r, body: body}
		if sketch && !r.cut && r.fig != figPeering {
			o.refs[i].near = &e
		}
	}
	return o, nil
}

// check judges a 200 response to request i.
func (o *oracle) check(i int, body []byte) error {
	ref := o.refs[i]
	if bytes.Equal(body, ref.body) {
		return nil
	}
	if ref.near == nil {
		return ref.mismatch(body)
	}
	return nearExact(ref.req, *ref.near, body)
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// nearExact checks a sketch-path body against the exact answer e:
// identities (names, counts) must match, values must sit within the
// pinned tolerances.
func nearExact(r request, e exact, body []byte) error {
	switch r.fig {
	case figLatencyMap:
		got, err := decodeBody[serve.LatencyMapEntry](body, r.ndjson)
		if err != nil {
			return err
		}
		if len(got) != len(e.latmap) {
			return fmt.Errorf("latency-map has %d countries, want %d", len(got), len(e.latmap))
		}
		for i, want := range e.latmap {
			if got[i].Country != want.Country || got[i].Samples != want.Samples {
				return fmt.Errorf("latency-map row %d is %s/%d, want %s/%d", i, got[i].Country, got[i].Samples, want.Country, want.Samples)
			}
			if d := relErr(got[i].MedianMs, want.MedianMs); d > epsMedianRel {
				return fmt.Errorf("latency-map %s median off by %.4f relative", want.Country, d)
			}
		}
	case figCDF:
		got, err := decodeBody[serve.CDFEntry](body, r.ndjson)
		if err != nil {
			return err
		}
		if len(got) != len(e.cdf) {
			return fmt.Errorf("cdf has %d continents, want %d", len(got), len(e.cdf))
		}
		for i, want := range e.cdf {
			g := got[i]
			if g.Continent != want.Continent.String() || g.N != want.N {
				return fmt.Errorf("cdf row %d is %s/%d, want %s/%d", i, g.Continent, g.N, want.Continent, want.N)
			}
			if want.N < minCurveSamples {
				continue
			}
			for _, pair := range [][2]float64{{g.UnderMTP, want.UnderMTP}, {g.UnderHPL, want.UnderHPL}, {g.UnderHRT, want.UnderHRT}} {
				if d := math.Abs(pair[0] - pair[1]); d > epsCDFFraction {
					return fmt.Errorf("cdf %s threshold fraction off by %.4f", g.Continent, d)
				}
			}
			// The sketch curve is sampled on its own grid; judge each of
			// its points against the exact CDF at the same RTT.
			for _, pt := range g.Series {
				if d := math.Abs(pt[1] - want.CDF.At(pt[0])); d > epsCDFCurve {
					return fmt.Errorf("cdf %s curve at %.1f ms off by %.4f", g.Continent, pt[0], d)
				}
			}
		}
	case figPlatformDiff:
		got, err := decodeBody[serve.PlatformDiffEntry](body, r.ndjson)
		if err != nil {
			return err
		}
		if len(got) != len(e.pdiff) {
			return fmt.Errorf("platform-diff has %d continents, want %d", len(got), len(e.pdiff))
		}
		for i, want := range e.pdiff {
			g := got[i]
			if g.Continent != want.Continent.String() || g.NSpeedchecker != want.NSC || g.NAtlas != want.NAtlas || len(g.DiffsMs) != len(want.Diffs) {
				return fmt.Errorf("platform-diff row %d identity mismatch", i)
			}
			for c := range want.Diffs {
				// Centile c+1 is an estimate only with ten samples beyond
				// it on either side, on both platforms — the rule the
				// benchmark's own tails follow.
				if n := min(want.NSC, want.NAtlas); beyond(n, float64(c+1)) < minBeyond || beyond(n, float64(99-c)) < minBeyond {
					continue
				}
				if d := math.Abs(g.DiffsMs[c] - want.Diffs[c]); d > epsDiffMs {
					return fmt.Errorf("platform-diff %s centile %d off by %.2f ms", g.Continent, c+1, d)
				}
			}
		}
	case figChangepoint:
		got, err := decodeBody[store.ChangepointEntry](body, r.ndjson)
		if err != nil {
			return err
		}
		if len(got) != len(e.chg) {
			return fmt.Errorf("changepoint has %d pairs, want %d", len(got), len(e.chg))
		}
		byPair := make(map[string]store.ChangepointEntry, len(e.chg))
		for _, want := range e.chg {
			byPair[store.PairName(want.Country, want.Provider)] = want
		}
		for _, g := range got {
			want, ok := byPair[store.PairName(g.Country, g.Provider)]
			if !ok || g.NBefore != want.NBefore || g.NAfter != want.NAfter || g.Status != want.Status {
				return fmt.Errorf("changepoint pair %s/%s identity mismatch", g.Country, g.Provider)
			}
			if want.NBefore > 0 && relErr(g.MedianBeforeMs, want.MedianBeforeMs) > epsMedianRel {
				return fmt.Errorf("changepoint %s/%s median-before %.3f, want %.3f", g.Country, g.Provider, g.MedianBeforeMs, want.MedianBeforeMs)
			}
			if want.NAfter > 0 && relErr(g.MedianAfterMs, want.MedianAfterMs) > epsMedianRel {
				return fmt.Errorf("changepoint %s/%s median-after %.3f, want %.3f", g.Country, g.Provider, g.MedianAfterMs, want.MedianAfterMs)
			}
			// Mann-Whitney on a handful of samples is a step function the
			// sketch smooths; the tolerance was pinned on groups of 64 and
			// holds from 16 a side.
			if min(want.NBefore, want.NAfter) < minShiftSamples {
				continue
			}
			if d := math.Abs(g.Shift - want.Shift); d > epsShiftAbs {
				return fmt.Errorf("changepoint %s/%s shift off by %.4f", g.Country, g.Provider, d)
			}
		}
	}
	return nil
}
