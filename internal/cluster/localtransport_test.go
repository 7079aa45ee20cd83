package cluster

import (
	"context"
	"errors"
	"net"
	"sync"
)

// ErrTransportClosed is returned by Accept and Dial on a
// LocalTransport that has been shut down.
var ErrTransportClosed = errors.New("cluster: transport closed")

// LocalTransport connects workers to a coordinator inside one process
// over net.Pipe — the deterministic harness the cluster tests (and the
// chaos test) run on. The pipe is synchronous and unbuffered, which is
// exactly the backpressure a real socket's full send buffer applies:
// a worker cannot outrun the coordinator's merge.
type LocalTransport struct {
	conns chan Conn
	done  chan struct{}
	once  sync.Once
}

// NewLocalTransport builds an open transport.
func NewLocalTransport() *LocalTransport {
	return &LocalTransport{conns: make(chan Conn), done: make(chan struct{})}
}

// Dial connects a worker: it hands the coordinator side of a fresh
// pipe to the next Accept and returns the worker side.
func (t *LocalTransport) Dial(ctx context.Context) (Conn, error) {
	worker, coord := net.Pipe()
	select {
	case t.conns <- coord:
		return worker, nil
	case <-t.done:
		worker.Close()
		coord.Close()
		return nil, ErrTransportClosed
	case <-ctx.Done():
		worker.Close()
		coord.Close()
		return nil, ctx.Err()
	}
}

// Accept implements Listener.
func (t *LocalTransport) Accept(ctx context.Context) (Conn, error) {
	select {
	case c := <-t.conns:
		return c, nil
	case <-t.done:
		return nil, ErrTransportClosed
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Close implements Listener; pending and future Dials fail.
func (t *LocalTransport) Close() error {
	t.once.Do(func() { close(t.done) })
	return nil
}
