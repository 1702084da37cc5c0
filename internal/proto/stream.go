package proto

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/wire"
)

// CtxStreamer is an optional Handler extension for server push. When the
// handler implements it, every decoded request is offered to
// HandleStreamCtx first; returning ok opens a push stream on the
// connection: the server writes ack, then runs run on its own goroutine
// with an emit function that frames push messages onto the connection
// (safe to call concurrently with request/response traffic — frames
// never interleave). run should return when the stream ends or emit
// fails; the connection is closed when it does, and stop is called when
// the connection goes away for any reason. The serve loop passes a
// context bound to the server's lifetime, so subscriptions opened on
// behalf of a connection are cancelled when the server shuts down.
type CtxStreamer interface {
	HandleStreamCtx(ctx context.Context, req wire.Message) (ack wire.Message, run func(emit func(wire.Message) error), stop func(), ok bool)
}

// streamQueueDepth buffers pushes decoded ahead of the consumer; beyond
// it the read loop applies backpressure to the TCP connection rather
// than queueing without bound.
const streamQueueDepth = 64

// frameWriter serializes frame writes on one connection so pushed
// frames and request responses never interleave mid-frame: each message
// is encoded into the connection's write buffer and written whole, under
// one lock.
type frameWriter struct {
	conn    net.Conn
	timeout time.Duration

	mu  sync.Mutex
	buf []byte // guarded by mu
}

func (w *frameWriter) write(m wire.Message) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	frame, err := appendFrame(w.buf[:0], m)
	if err != nil {
		if errors.Is(err, ErrFrameTooLarge) {
			return err
		}
		frame, err = appendFrame(w.buf[:0], wire.ErrorResponse{Msg: "internal encode error"})
		if err != nil {
			return err
		}
	}
	w.buf = keep(frame)
	if err := w.conn.SetWriteDeadline(time.Now().Add(w.timeout)); err != nil {
		return err
	}
	//lockcheck:allow mu exists to keep frames whole on the connection; the deadline bounds the write
	_, err = w.conn.Write(frame)
	return err
}

// Stream is the client side of a push stream: one dedicated connection
// carrying the subscribe exchange followed by pushed frames. Dedicate a
// connection per stream; Exchange traffic belongs on its own Client.
type Stream struct {
	conn net.Conn
	ack  wire.Message
	ch   chan wire.Message
	done chan struct{}

	mu     sync.Mutex
	err    error
	closed bool
}

// StreamRefused is DialStream's error when the server was reached and
// answered the stream-opening frame with an ErrorResponse. Response is
// that answer, code included, so a caller can restore the failure the
// peer named instead of treating it as a dead connection.
type StreamRefused struct{ Response wire.ErrorResponse }

func (e *StreamRefused) Error() string { return "proto: stream refused: " + e.Response.Msg }

// DialStream connects to addr, sends req, and — unless the server
// answers with an ErrorResponse (a *StreamRefused error) — returns the
// stream with the server's ack. Pushed frames arrive on C until the
// stream fails or is closed.
func DialStream(addr string, cfg ServerConfig, req wire.Message) (*Stream, error) {
	cfg = cfg.withDefaults()
	frame, err := appendFrame(nil, req)
	if err != nil {
		return nil, fmt.Errorf("proto: encode request: %w", err)
	}
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("proto: dial %s: %w", addr, err)
	}
	if err := conn.SetDeadline(time.Now().Add(cfg.IdleTimeout)); err != nil {
		conn.Close()
		return nil, err
	}
	if _, err := conn.Write(frame); err != nil {
		conn.Close()
		return nil, fmt.Errorf("proto: write: %w", err)
	}
	rd := frameReader{r: conn}
	ack, bad, err := rd.next()
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("proto: read ack: %w", err)
	}
	if bad != nil {
		conn.Close()
		return nil, fmt.Errorf("proto: decode ack: %w", bad)
	}
	if e, ok := ack.(wire.ErrorResponse); ok {
		conn.Close()
		return nil, &StreamRefused{Response: e}
	}
	// Pushes arrive whenever covers change; no idle deadline from here.
	if err := conn.SetDeadline(time.Time{}); err != nil {
		conn.Close()
		return nil, err
	}
	st := &Stream{
		conn: conn,
		ack:  ack,
		ch:   make(chan wire.Message, streamQueueDepth),
		done: make(chan struct{}), //bounded: signal-only; Close closes it, nothing sends
	}
	go st.readLoop(rd)
	return st, nil
}

func (st *Stream) readLoop(rd frameReader) {
	defer close(st.ch)
	for {
		m, bad, err := rd.next()
		if err != nil {
			st.fail(fmt.Errorf("proto: stream read: %w", err))
			return
		}
		if bad != nil {
			st.fail(fmt.Errorf("proto: stream decode: %w", bad))
			return
		}
		select {
		case st.ch <- m:
		case <-st.done:
			return
		}
	}
}

func (st *Stream) fail(err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.closed && st.err == nil {
		st.err = err
	}
}

// Ack returns the server's acknowledgment message.
func (st *Stream) Ack() wire.Message { return st.ack }

// C is the pushed-frame channel. It closes when the stream ends; Err
// then reports why (nil after a local Close).
func (st *Stream) C() <-chan wire.Message { return st.ch }

// Err reports the stream failure, if any, once C is closed.
func (st *Stream) Err() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.err
}

// Close tears the stream down. The server drops the subscription when
// the connection closes.
func (st *Stream) Close() error {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return nil
	}
	st.closed = true
	close(st.done)
	st.mu.Unlock()
	return st.conn.Close()
}
