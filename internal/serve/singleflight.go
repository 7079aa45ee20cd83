package serve

import (
	"context"
	"fmt"
	"log"
	"runtime/debug"
	"sync"
)

// flightGroup coalesces concurrent computations of the same key: the
// first caller starts fn, every concurrent duplicate waits for the same
// result. Unlike a cache, the entry lives only while the computation is
// in flight — the response cache in front of it handles reuse
// afterwards.
//
// fn runs on a goroutine of the group's own, one per computation, so
// that each caller can stop waiting at its own deadline without
// abandoning the work: a computation outlives the callers that gave up
// on it and still delivers its result to whatever fn does with it (the
// server's fn fills the response cache).
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight
}

type flight struct {
	done chan struct{} // closed once res is set
	res  computed
}

func newFlightGroup() *flightGroup {
	return &flightGroup{m: map[string]*flight{}}
}

// do returns fn's result for key, with shared=true when this caller
// piggybacked on another caller's in-flight computation. When ctx ends
// first, do returns ctx's error and leaves the computation running.
func (g *flightGroup) do(ctx context.Context, key string, fn func() computed) (res computed, shared bool, err error) {
	g.mu.Lock()
	f, shared := g.m[key]
	if !shared {
		f = &flight{done: make(chan struct{})}
		g.m[key] = f
		go func() {
			defer close(f.done)
			f.res = recovered(key, fn)
			// Forget the key before waking the waiters, so a request
			// that sees this result fail recomputes instead of joining
			// the finished flight.
			g.mu.Lock()
			delete(g.m, key)
			g.mu.Unlock()
		}()
	}
	g.mu.Unlock()
	select {
	case <-f.done:
		return f.res, shared, nil
	case <-ctx.Done():
		return computed{}, shared, ctx.Err()
	}
}

// recovered runs fn, turning a panic into an error result: one failing
// query must neither kill the process nor strand the callers waiting
// on its key. The stack goes to the standard logger, where net/http
// logs a panic in a handler.
func recovered(key string, fn func() computed) (res computed) {
	defer func() {
		if p := recover(); p != nil {
			log.Printf("serve: query %s panicked: %v\n%s", key, p, debug.Stack())
			res = computed{err: fmt.Errorf("query %s panicked: %v", key, p)}
		}
	}()
	return fn()
}
