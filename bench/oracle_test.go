package main

import (
	"net/http"
	"runtime"
	"strings"
	"testing"

	"repro/internal/serve"
)

var smokeSizing = sizing{seconds: 0.2, smoke: true}

// smokeRun mounts spec's fixture at smoke size with a plan of n
// requests and its oracle.
func smokeRun(t *testing.T, spec serveSpec, n int) *serveRun {
	t.Helper()
	r := &serveRun{spec: spec, sz: smokeSizing}
	var err error
	if spec.hot {
		r.plan = hotPlan(1, n)
	} else if r.plan, err = coldPlan(1, n, spec.sketch); err != nil {
		t.Fatal(err)
	}
	for _, req := range r.plan.distinct {
		r.paths = append(r.paths, req.path())
	}
	if r.oracle, err = newOracle(buildStore(1, smokeSizing.rows(), nil), r.plan, spec.sketch, runtime.NumCPU()); err != nil {
		t.Fatal(err)
	}
	if r.m, err = mount(spec, 1, smokeSizing, nil); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := r.m.close(); err != nil {
			t.Errorf("closing the mount: %v", err)
		}
	})
	return r
}

// TestOracleCatchesCorruptedBody serves a cold plan from the memory
// store: every body must be byte-equal to its reference, and one byte
// flipped in one response must count as one failed operation.
func TestOracleCatchesCorruptedBody(t *testing.T) {
	const n, corrupted = 40, 7
	r := smokeRun(t, serveSpecs[1], n)
	clean, _ := closedLoop(r.m.clients, n, r.exchange(0))
	if c := tally(clean); c.failed != 0 {
		t.Fatalf("%d of %d clean responses failed: %s", c.failed, c.n, c.firstFailure)
	}
	// Same keys again (now cache hits), one body damaged on the way in.
	dirty, _ := closedLoop(r.m.clients, n, func(c *client, i int) verdict {
		s := r.plan.stream[i]
		status, hdr, body, err := c.get(wire{path: r.paths[s.req], ndjson: r.plan.distinct[s.req].ndjson, reqID: i})
		if err != nil {
			return verdict{failed: err.Error()}
		}
		if i == corrupted {
			body[len(body)/2] ^= 0x01
		}
		return r.judge(s, status, hdr, body)
	})
	c := tally(dirty)
	if c.failed != 1 || dirty[corrupted].failed == "" {
		t.Fatalf("%d failed operations, want exactly request %d: %s", c.failed, corrupted, c.firstFailure)
	}
	if got, want := ratio(c.failed, c.n), 1.0/n; got != want {
		t.Errorf("fail ratio %v, want %v", got, want)
	}
	if c.hits != n {
		t.Errorf("%d cache hits on the second pass, want %d", c.hits, n)
	}
}

// TestOracleAcceptsSketchWithinTolerance serves a sketch-mode plan:
// cut windows must come back byte-equal to the exact answer, aligned
// ones within the pinned tolerances, and a median pushed 5 % off must
// be refused.
func TestOracleAcceptsSketchWithinTolerance(t *testing.T) {
	const n = coldBlock
	r := smokeRun(t, serveSpecs[2], n)
	out, _ := closedLoop(r.m.clients, n, r.exchange(0))
	nearJudged := 0
	for _, o := range out {
		if o.pending != nil {
			nearJudged++
		}
	}
	r.settle(0, out)
	if c := tally(out); c.failed != 0 {
		t.Fatalf("%d of %d sketch responses failed: %s", c.failed, c.n, c.firstFailure)
	}
	if nearJudged == 0 {
		t.Fatal("no response took the tolerance path; the reader did not answer from sketches")
	}
	cut := 0
	for _, req := range r.plan.distinct {
		if req.cut {
			cut++
		}
	}
	if cut != n/10 {
		t.Errorf("%d of %d requests cut a partition, want exactly a tenth", cut, n)
	}

	// An aligned latency-map whose medians drift.
	for i, req := range r.plan.distinct {
		if req.fig != figLatencyMap || req.cut {
			continue
		}
		rows, err := decodeBody[serve.LatencyMapEntry](r.oracle.refs[i].body, req.ndjson)
		if err != nil || len(rows) == 0 {
			t.Fatalf("decoding the reference of %s: %d rows, %v", req.path(), len(rows), err)
		}
		for _, c := range []struct {
			factor float64
			ok     bool
		}{{1.005, true}, {1.05, false}} {
			drifted := append([]serve.LatencyMapEntry(nil), rows...)
			drifted[0].MedianMs *= c.factor
			body, err := encodeBody(drifted, req.ndjson)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.oracle.check(i, body); (err == nil) != c.ok {
				t.Errorf("median ×%v: oracle said %v", c.factor, err)
			}
		}
		return
	}
	t.Fatal("the plan holds no aligned latency-map")
}

// TestHotRevalidation checks the conditional path: a 304 is correct
// only with the ETag learned at warm-up.
func TestHotRevalidation(t *testing.T) {
	r := smokeRun(t, serveSpecs[0], 200)
	if err := r.warm(); err != nil {
		t.Fatal(err)
	}
	out, _ := closedLoop(r.m.clients, len(r.plan.stream), r.exchange(0))
	c := tally(out)
	if c.failed != 0 {
		t.Fatalf("%d of %d hot responses failed: %s", c.failed, c.n, c.firstFailure)
	}
	if c.notModified == 0 || c.notModified == c.n || c.hits != c.n {
		t.Errorf("%d of %d were 304s, %d cache hits; want a mix of 200 and 304, all hits", c.notModified, c.n, c.hits)
	}
	s := send{req: 0, conditional: true}
	hdr := http.Header{"Etag": {`"e1-stale"`}}
	if v := r.judge(s, http.StatusNotModified, hdr, nil); !strings.Contains(v.failed, "304") {
		t.Errorf("a 304 with a foreign ETag was judged %q", v.failed)
	}
}

// TestColdPlanShape pins what the validity checks rely on: distinct
// keys, the mix exact in every block, a tenth of the windows cut on the
// sketch plan.
func TestColdPlanShape(t *testing.T) {
	for _, sketch := range []bool{false, true} {
		p, err := coldPlan(3, 3*coldBlock, sketch)
		if err != nil {
			t.Fatal(err)
		}
		keys := map[string]bool{}
		for b := 0; b < 3; b++ {
			var perFig [numFigures]int
			cut := 0
			for _, req := range p.distinct[b*coldBlock : (b+1)*coldBlock] {
				keys[req.key()] = true
				perFig[req.fig]++
				if req.cut {
					cut++
				}
			}
			for fig, share := range coldMix {
				if perFig[fig] != share*coldBlock/10 {
					t.Errorf("sketch=%v block %d: %d %s requests, want %d", sketch, b, perFig[fig], figure(fig), share*coldBlock/10)
				}
			}
			if sketch && cut != coldBlock/10 {
				t.Errorf("block %d: %d cut windows, want %d", b, cut, coldBlock/10)
			}
		}
		if len(keys) != len(p.distinct) {
			t.Errorf("sketch=%v: %d distinct keys among %d requests", sketch, len(keys), len(p.distinct))
		}
	}
}
