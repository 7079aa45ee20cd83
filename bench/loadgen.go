package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"
)

// The generator is one scheduler goroutine and a fixed set of
// keep-alive connections, one worker goroutine each. In the open loop
// the scheduler releases request i at start + i×period whatever the
// server is doing; a request that finds every connection busy waits in
// the generator, and that wait counts, because latency runs from the
// instant the request was due — not from the instant it was written.

// client is one keep-alive HTTP/1.1 connection with its own identity
// towards admission control.
type client struct {
	id   string
	conn net.Conn
	br   *bufio.Reader
	// out and body are reused from request to request, so the generator
	// adds as little garbage as it can to a heap it shares with the
	// server under test.
	out  []byte
	body bytes.Buffer
}

func dial(addr, id string) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &client{id: id, conn: conn, br: bufio.NewReaderSize(conn, 64<<10)}, nil
}

// wire is one request as the generator writes it.
type wire struct {
	path   string
	ndjson bool
	etag   string // If-None-Match when non-empty
	reqID  int    // X-Bench-Req: joins the client's span to the server-side ones
}

// get writes one request and reads the whole response. The returned
// body is valid until the client's next get.
func (c *client) get(w wire) (status int, header http.Header, body []byte, err error) {
	buf := append(c.out[:0], "GET "...)
	buf = append(buf, w.path...)
	buf = append(buf, " HTTP/1.1\r\nHost: bench\r\nX-Client-ID: "...)
	buf = append(buf, c.id...)
	buf = append(buf, "\r\nX-Bench-Req: "...)
	buf = strconv.AppendInt(buf, int64(w.reqID), 10)
	if w.ndjson {
		buf = append(buf, "\r\nAccept: application/x-ndjson"...)
	}
	if w.etag != "" {
		buf = append(buf, "\r\nIf-None-Match: "...)
		buf = append(buf, w.etag...)
	}
	buf = append(buf, "\r\n\r\n"...)
	c.out = buf
	if _, err := c.conn.Write(buf); err != nil {
		return 0, nil, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, nil, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, resp.Header, c.body.Bytes(), nil
}

// outcome is what the generator recorded for one request. Times are
// offsets from the phase start.
type outcome struct {
	due     time.Duration // when the schedule said to send (open loop) or when a client was free (closed loop)
	late    time.Duration // how long after due the scheduler released it
	started time.Duration // when a connection began writing it
	done    time.Duration // when the response was fully read
	verdict
}

// latency runs from the instant the request was due.
func (o outcome) latency() time.Duration { return o.done - o.due }

// service runs from the instant the request was written: what a
// generator that waits for the previous response would report.
func (o outcome) service() time.Duration { return o.done - o.started }

// verdict is the workload's judgement of one response.
type verdict struct {
	status int
	cache  string // X-Cache
	failed string // why the response counts as a failed operation; "" when correct
	// pending holds a body that is not byte-equal to the reference but
	// may be within tolerance; it is judged after the phase, off the
	// measured path.
	pending []byte
}

// exchange performs request i of a phase on c and judges the response.
type exchange func(c *client, i int) verdict

// spinWindow is how close to a due instant the scheduler stops
// sleeping and yields in a loop instead. It is short on purpose: while
// a goroutine spins on Gosched no P goes idle, and an idle P blocked in
// the network poller is what wakes a connection's reader promptly.
const spinWindow = 50 * time.Microsecond

func waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		if d > spinWindow {
			sleep(d - spinWindow)
		} else {
			runtime.Gosched()
		}
	}
}

// openLoop sends n requests, request i due at i×period after the
// start, over the given connections.
func openLoop(clients []*client, n int, period time.Duration, do exchange) []outcome {
	out := make([]outcome, n)
	// Sized to the number of sends so the scheduler never blocks on a
	// busy generator: lateness then measures the scheduler alone.
	released := make(chan int, n)
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for i := range released {
				out[i].started = time.Since(start)
				out[i].verdict = do(c, i)
				out[i].done = time.Since(start)
			}
		}(c)
	}
	for i := 0; i < n; i++ {
		due := time.Duration(i) * period
		waitUntil(start.Add(due))
		out[i].due = due
		out[i].late = time.Since(start) - due
		released <- i
	}
	close(released)
	wg.Wait()
	return out
}

// closedLoop has every client send its next request the moment the
// previous response is read, until n requests are done. It returns the
// outcomes and the wall time the n requests took.
func closedLoop(clients []*client, n int, do exchange) ([]outcome, time.Duration) {
	out := make([]outcome, n)
	next := make(chan int, n)
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for i := range next {
				out[i].due = time.Since(start)
				out[i].started = out[i].due
				out[i].verdict = do(c, i)
				out[i].done = time.Since(start)
			}
		}(c)
	}
	wg.Wait()
	return out, time.Since(start)
}

// dialAll opens n connections to addr, identified prefix-0..n-1.
func dialAll(addr, prefix string, n int) ([]*client, error) {
	clients := make([]*client, 0, n)
	for i := 0; i < n; i++ {
		c, err := dial(addr, fmt.Sprintf("%s-%d", prefix, i))
		if err != nil {
			closeAll(clients)
			return nil, err
		}
		clients = append(clients, c)
	}
	return clients, nil
}

func closeAll(clients []*client) {
	for _, c := range clients {
		c.conn.Close()
	}
}
