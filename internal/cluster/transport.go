package cluster

import (
	"context"
	"io"
	"net"
)

// Conn is one bidirectional byte stream between a worker and the
// coordinator; both the in-process and the TCP transports produce it.
type Conn = io.ReadWriteCloser

// Listener is the coordinator's accept side. Accept blocks until a
// worker dials, the transport closes, or ctx is done.
type Listener interface {
	Accept(ctx context.Context) (Conn, error)
	Close() error
}

// tcpListener adapts a net.Listener to the ctx-aware Listener.
type tcpListener struct {
	ln net.Listener
}

// ListenTCP opens the coordinator's TCP accept side and reports the
// bound address (useful with a ":0" addr).
func ListenTCP(addr string) (Listener, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	return &tcpListener{ln: ln}, ln.Addr().String(), nil
}

// Accept implements Listener. Cancelling ctx closes the listener —
// acceptable because a coordinator run owns its listener for life.
func (l *tcpListener) Accept(ctx context.Context) (Conn, error) {
	stop := context.AfterFunc(ctx, func() { l.ln.Close() })
	defer stop()
	c, err := l.ln.Accept()
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, err
	}
	return c, nil
}

func (l *tcpListener) Close() error { return l.ln.Close() }

// DialTCP connects a worker to a coordinator's TCP address.
func DialTCP(ctx context.Context, addr string) (Conn, error) {
	var d net.Dialer
	return d.DialContext(ctx, "tcp", addr)
}
