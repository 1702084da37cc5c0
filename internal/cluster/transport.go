package cluster

import (
	"errors"
	"sync"

	"repro/internal/wire"
)

// Dialer opens a transport to a peer node's wire address (proto.Dial
// adapted, in production).
type Dialer func(addr string) (Transport, error)

// lazyTransport dials its peer on first use and redials after a failed
// exchange, so a node that starts before its peers (or outlives a peer
// restart) converges without operator action.
type lazyTransport struct {
	addr string
	dial Dialer

	mu     sync.Mutex
	t      Transport
	closed bool
}

// errTransportClosed is an exchange on a lazy transport after Close.
var errTransportClosed = errors.New("cluster: transport closed")

// NewLazyTransport returns a Transport that connects to addr on first
// Exchange and reconnects after transport failures, until it is closed.
func NewLazyTransport(addr string, dial Dialer) Transport {
	return &lazyTransport{addr: addr, dial: dial}
}

// Exchange implements Transport. A failed exchange drops the cached
// connection so the next call redials; the failure itself is returned
// to the caller, which routes or reports it (no transparent retry — a
// forwarded ingest must not be applied twice). Dialing and the
// exchange itself happen OUTSIDE the mutex: a dead peer must cost each
// concurrent caller one dial timeout, not a serialized queue of them,
// and concurrent exchanges rely on the underlying transport's own
// serialization (proto.Client is safe for concurrent use).
func (lt *lazyTransport) Exchange(req wire.Message) (wire.Message, error) {
	lt.mu.Lock()
	t, closed := lt.t, lt.closed
	lt.mu.Unlock()
	if closed {
		return nil, errTransportClosed
	}
	if t == nil {
		nt, err := lt.dial(lt.addr)
		if err != nil {
			return nil, err
		}
		lt.mu.Lock()
		if lt.t == nil && !lt.closed {
			lt.t = nt
		}
		t = lt.t // a concurrent caller may have won the dial race; keep theirs
		lt.mu.Unlock()
		if t != nt {
			closeTransport(nt)
		}
		if t == nil {
			return nil, errTransportClosed // closed while dialing
		}
	}
	resp, err := t.Exchange(req)
	if err != nil {
		// Whoever takes t out of the slot closes it — here, a concurrent
		// failed exchange, or Close — so it is closed exactly once.
		lt.mu.Lock()
		mine := lt.t == t
		if mine {
			lt.t = nil
		}
		lt.mu.Unlock()
		if mine {
			closeTransport(t)
		}
		return nil, err
	}
	return resp, nil
}

// Close closes the connection, if one is open, and makes every later
// Exchange fail instead of redialing.
func (lt *lazyTransport) Close() error {
	lt.mu.Lock()
	t := lt.t
	lt.t, lt.closed = nil, true
	lt.mu.Unlock()
	closeTransport(t)
	return nil
}

// closeTransport closes a transport if it supports closing (a nil one
// does not).
func closeTransport(t Transport) {
	if c, ok := t.(interface{ Close() error }); ok {
		_ = c.Close()
	}
}

// LazyTransports builds one lazy transport per ring node, with nil at
// self — the Transports slice NodeConfig expects.
func LazyTransports(r *Ring, self int, dial Dialer) []Transport {
	out := make([]Transport, r.Nodes())
	for i := range out {
		if i == self {
			continue
		}
		out[i] = NewLazyTransport(r.Addr(i), dial)
	}
	return out
}
