package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"strconv"

	"repro/internal/store"
)

// figure is one of the five figure endpoints.
type figure int

const (
	figLatencyMap figure = iota
	figCDF
	figPlatformDiff
	figChangepoint
	figPeering
	numFigures
)

var figureNames = [numFigures]string{"latency-map", "cdf", "platform-diff", "changepoint", "peering-shares"}

func (f figure) String() string { return figureNames[f] }

// request is one distinct figure request: the parameters the oracle
// and the probes work from, and the wire form the generator sends.
type request struct {
	fig       figure
	platform  string       // cdf, changepoint
	win       store.Window // every figure but changepoint
	min       int          // latency-map; 0 = server default
	points    int          // cdf; 0 = server default
	continent string       // cdf; "" = all
	at, width int          // changepoint; at 0 = server default (midpoint)
	ndjson    bool
	// cut marks a window (or changepoint split) that is not
	// partition-aligned: a sketch-mode segment reader must answer it
	// from the exact path.
	cut bool
}

// path renders the request URL path and query.
func (r request) path() string {
	q := url.Values{}
	set := func(k string, v int) {
		if v > 0 {
			q.Set(k, strconv.Itoa(v))
		}
	}
	switch r.fig {
	case figLatencyMap:
		set("min", r.min)
	case figCDF:
		q.Set("platform", r.platform)
		set("points", r.points)
		if r.continent != "" {
			q.Set("continent", r.continent)
		}
	case figChangepoint:
		q.Set("platform", r.platform)
		set("at", r.at)
		set("width", r.width)
	}
	set("from", r.win.From)
	set("to", r.win.To)
	p := "/v1/" + r.fig.String()
	if len(q) > 0 {
		p += "?" + q.Encode()
	}
	return p
}

// key identifies the response: two requests share a cache entry in the
// server exactly when their keys are equal.
func (r request) key() string {
	if r.ndjson {
		return r.path() + " ndjson"
	}
	return r.path()
}

// send is one entry of a workload's request stream.
type send struct {
	req         int  // index into plan.distinct
	conditional bool // revalidate with the ETag learned for the key
}

// plan is a workload's traffic, generated up front from the seed.
type plan struct {
	distinct []request
	stream   []send
}

// aligned reports whether w starts and ends on partition boundaries of
// the bench store.
func aligned(w store.Window) bool {
	return w.From%fixtureSpan == 0 && (w.To <= 0 || w.To >= fixtureCycles || w.To%fixtureSpan == 0)
}

// changepointAligned reports whether both comparison windows of a
// changepoint request are partition-aligned.
func changepointAligned(at, width int) bool {
	before, after := changepointWindows(at, width)
	return aligned(before) && aligned(after)
}

// hotPlan is serve-hot's traffic: 16 parameter sets × json/ndjson =
// 32 keys, zipf(1.2) popularity in the listed order, half of the
// requests conditional.
func hotPlan(seed int64, n int) plan {
	base := []request{
		{fig: figLatencyMap},
		{fig: figCDF, platform: "speedchecker"},
		{fig: figPlatformDiff},
		{fig: figPeering},
		{fig: figChangepoint, platform: "speedchecker"},
		{fig: figCDF, platform: "atlas"},
		{fig: figLatencyMap, win: store.Window{From: 9}},
		{fig: figCDF, platform: "speedchecker", continent: "EU"},
		{fig: figPlatformDiff, win: store.Window{From: 9}},
		{fig: figCDF, platform: "speedchecker", win: store.Window{From: 9}},
		{fig: figPeering, win: store.Window{From: 9}},
		{fig: figChangepoint, platform: "atlas"},
		{fig: figLatencyMap, min: 100, win: store.Window{From: 6}},
		{fig: figCDF, platform: "atlas", points: 256},
		{fig: figPlatformDiff, win: store.Window{From: 6}},
		{fig: figChangepoint, platform: "speedchecker", at: 9, width: 3},
	}
	var p plan
	for _, r := range base {
		p.distinct = append(p.distinct, r)
		r.ndjson = true
		p.distinct = append(p.distinct, r)
	}
	cum := make([]float64, len(p.distinct))
	var total float64
	for i := range cum {
		total += math.Pow(float64(i+1), -1.2)
		cum[i] = total
	}
	rng := rand.New(rand.NewSource(seed))
	p.stream = make([]send, n)
	for i := range p.stream {
		u := rng.Float64() * total
		k := 0
		for cum[k] < u {
			k++
		}
		p.stream[i] = send{req: k, conditional: rng.Intn(2) == 0}
	}
	return p
}

// coldBlock is how many consecutive requests of a cold plan hold the
// mix exactly.
const coldBlock = 100

// coldMix is the figure mix of both cold workloads, per ten requests.
// Exact shares per block keep the work of a run independent of the
// seed; the seed orders the block and draws the parameters.
var coldMix = [numFigures]int{figLatencyMap: 1, figCDF: 4, figPlatformDiff: 2, figChangepoint: 2, figPeering: 1}

// coldPlan generates n requests with distinct keys, in blocks of one
// hundred holding the cold mix exactly. One request in ten of each
// figure is the workload's slow case: on serve-cold-sketch a window
// that cuts a partition (the other nine are partition-aligned), on
// serve-cold-exact — where alignment means nothing — a latency-map of
// the whole campaign in place of a three-cycle window.
func coldPlan(seed int64, n int, sketch bool) (plan, error) {
	rng := rand.New(rand.NewSource(seed))
	g := &coldGen{rng: rng, sketch: sketch, used: map[string]bool{}}
	var p plan
	for len(p.distinct) < n {
		var slow, rest []request
		for fig, share := range coldMix {
			for k := 0; k < share*coldBlock/10; k++ {
				r, err := g.next(figure(fig), k%10 == 0)
				if err != nil {
					return plan{}, err
				}
				if figure(fig) == figLatencyMap {
					slow = append(slow, r)
				} else {
					rest = append(rest, r)
				}
			}
		}
		rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
		// The latency-maps — a hundred times the cost of anything else
		// on the exact path — are spread evenly, one per ten requests,
		// and the rest shuffled around them. Left to the shuffle, how
		// often two of them meet on the two connections would decide a
		// run's percentiles, and the seed would decide that.
		stride := coldBlock / len(slow)
		for i := 0; i < coldBlock; i++ {
			if i%stride == stride/2 {
				p.distinct, slow = append(p.distinct, slow[0]), slow[1:]
			} else {
				p.distinct, rest = append(p.distinct, rest[0]), rest[1:]
			}
		}
	}
	p.distinct = p.distinct[:n]
	p.stream = make([]send, n)
	for i := range p.stream {
		p.stream[i] = send{req: i}
	}
	return p, nil
}

type coldGen struct {
	rng    *rand.Rand
	sketch bool
	used   map[string]bool
}

// next draws parameters for fig until the key is unused. special marks
// the one request in ten of its figure that is the workload's slow
// case: a cut window on serve-cold-sketch, the whole campaign (for
// latency-map) on serve-cold-exact.
func (g *coldGen) next(fig figure, special bool) (request, error) {
	for attempt := 0; attempt < 10000; attempt++ {
		r := request{fig: fig, ndjson: g.rng.Intn(4) == 0}
		cut := g.sketch && special
		switch fig {
		case figChangepoint:
			r.platform = g.platform()
			r.at, r.width = g.changepoint(cut)
			r.cut = !changepointAligned(r.at, r.width)
		default:
			r.win = g.window(fig, cut, fig == figLatencyMap && !g.sketch && special)
			r.cut = !aligned(r.win)
			switch fig {
			case figLatencyMap:
				r.min = 1 + g.rng.Intn(30)
			case figCDF:
				r.platform = g.platform()
				r.points = 32 + g.rng.Intn(65)
				if g.rng.Intn(3) == 0 {
					r.continent = knownContinents[g.rng.Intn(len(knownContinents))]
				}
			}
		}
		if g.sketch && r.cut != cut {
			return request{}, fmt.Errorf("bench: generated %s with cut=%v, wanted %v", r.path(), r.cut, cut)
		}
		if k := r.key(); !g.used[k] {
			g.used[k] = true
			return r, nil
		}
	}
	return request{}, fmt.Errorf("bench: key space of %s exhausted", fig)
}

var knownContinents = []string{"EU", "NA", "SA", "AS", "AF", "OC"}

func (g *coldGen) platform() string {
	if g.rng.Intn(5) == 0 {
		return "atlas"
	}
	return "speedchecker"
}

// openAbove draws a `to` that leaves the window unbounded above in
// effect: absent, or any cycle at or past the campaign's end. The
// variants are distinct cache keys for the same work.
func (g *coldGen) openAbove() int {
	return fixtureCycles + g.rng.Intn(4000)
}

// window draws a figure window: the whole campaign; or on
// serve-cold-sketch one to three whole partitions, or (cut) a window
// that cuts one; or on serve-cold-exact any window of one to six
// cycles. Latency-maps off the sketch path always ask for three cycles,
// which fixes the cost of the workload's slowest request class.
func (g *coldGen) window(fig figure, cut, whole bool) store.Window {
	if whole {
		return store.Window{To: g.openAbove()}
	}
	for {
		var from, length int
		switch {
		case g.sketch && !cut:
			from = g.rng.Intn(fixturePartitions) * fixtureSpan
			length = (1 + g.rng.Intn(3)) * fixtureSpan
		case fig == figLatencyMap:
			from, length = g.rng.Intn(fixtureCycles-fixtureSpan+1), fixtureSpan
		default:
			from, length = g.rng.Intn(fixtureCycles), 1+g.rng.Intn(2*fixtureSpan)
		}
		w := store.Window{From: from, To: from + length}
		if w.To >= fixtureCycles {
			w.To = g.openAbove()
		}
		if !cut || !aligned(w) {
			return w
		}
	}
}

// changepoint draws a split cycle and a comparison width.
func (g *coldGen) changepoint(cut bool) (at, width int) {
	widths := []int{0, fixtureSpan, 2 * fixtureSpan, g.openAbove()}
	if cut || !g.sketch {
		for {
			at = 1 + g.rng.Intn(fixtureCycles-1)
			width = g.rng.Intn(fixtureCycles)
			if !g.sketch || !changepointAligned(at, width) {
				return at, width
			}
		}
	}
	return (1 + g.rng.Intn(fixturePartitions-1)) * fixtureSpan, widths[g.rng.Intn(len(widths))]
}
