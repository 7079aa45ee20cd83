package main

import (
	"context"
	"net"
	"net/http"
	"testing"
	"time"

	"repro/internal/serve"
)

// TestOpenLoopCountsCoordinatedOmission stalls one request for 200 ms
// on a single connection. The requests due during the stall cannot be
// written until it ends; timed from the instant they were due they
// report at least the stall that remained, timed from the instant they
// were written they report a few milliseconds — the error a generator
// that waits for the previous response makes.
func TestOpenLoopCountsCoordinatedOmission(t *testing.T) {
	const (
		stall   = 200 * time.Millisecond
		period  = 10 * time.Millisecond
		stalled = 5
		n       = 30
	)
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/stall" {
			time.Sleep(stall)
		}
		w.Write([]byte("ok\n"))
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- serve.ServeListener(ctx, ln, h) }()
	clients, err := dialAll(ln.Addr().String(), "test", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		closeAll(clients)
		cancel()
		if err := <-served; err != nil {
			t.Errorf("server: %v", err)
		}
	}()

	out := openLoop(clients, n, period, func(c *client, i int) verdict {
		path := "/fast"
		if i == stalled {
			path = "/stall"
		}
		status, _, _, err := c.get(wire{path: path, reqID: i})
		if err != nil {
			return verdict{failed: err.Error()}
		}
		return verdict{status: status}
	})

	stallEnds := out[stalled].due + stall
	checked := 0
	for i := stalled + 1; i < n; i++ {
		o := out[i]
		if o.failed != "" || o.status != http.StatusOK {
			t.Fatalf("request %d: status %d, %s", i, o.status, o.failed)
		}
		if o.late < 0 {
			t.Errorf("request %d released %v before it was due", i, -o.late)
		}
		remaining := stallEnds - o.due
		if remaining < 100*time.Millisecond {
			continue
		}
		checked++
		// The server sleeps at least `stall`, so the bound is exact but
		// for the few microseconds between due and the stalled write.
		if o.latency() < remaining-5*time.Millisecond {
			t.Errorf("request %d: latency from due instant %v, want at least the remaining stall %v", i, o.latency(), remaining)
		}
		if o.service() >= remaining {
			t.Errorf("request %d: latency from actual send %v should hide the remaining stall %v", i, o.service(), remaining)
		}
	}
	if checked < 5 {
		t.Fatalf("only %d requests fell inside the stall; the schedule did not hold", checked)
	}
}

// TestClosedLoopIssuesEveryRequestOnce checks the closed loop's
// bookkeeping: n outcomes, each filled in by exactly one client.
func TestClosedLoopIssuesEveryRequestOnce(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.Write([]byte("ok\n")) })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- serve.ServeListener(ctx, ln, h) }()
	clients, err := dialAll(ln.Addr().String(), "test", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		closeAll(clients)
		cancel()
		<-served
	}()
	seen := make([]int, 200)
	out, elapsed := closedLoop(clients, len(seen), func(c *client, i int) verdict {
		status, _, _, err := c.get(wire{path: "/", reqID: i})
		if err != nil {
			return verdict{failed: err.Error()}
		}
		seen[i]++ // each index is handed to one client only
		return verdict{status: status}
	})
	for i, o := range out {
		if seen[i] != 1 || o.status != http.StatusOK || o.done < o.started {
			t.Fatalf("request %d: issued %d times, status %d, started %v done %v", i, seen[i], o.status, o.started, o.done)
		}
	}
	if elapsed <= 0 {
		t.Fatalf("closed loop took %v", elapsed)
	}
}
