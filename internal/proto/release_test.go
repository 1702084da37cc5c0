package proto

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// eventLog is the order in which a server's connections wrote frames and
// its handler took responses back.
type eventLog struct {
	mu     sync.Mutex
	events []string
}

func (l *eventLog) add(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, fmt.Sprintf(format, args...))
}

func (l *eventLog) snapshot() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.events)
}

// describe names a frame's message: a query answer by its value.
func describe(m wire.Message) string {
	if r, ok := m.(wire.QueryResponse); ok {
		return fmt.Sprintf("answer %v", r.Value)
	}
	return fmt.Sprintf("%T", m)
}

// loggedConn logs each frame the server writes, and fails the write of
// the answer whose value is failOn instead of sending it.
type loggedConn struct {
	net.Conn
	log    *eventLog
	failOn float64
}

func (c loggedConn) Write(p []byte) (int, error) {
	m, err := wire.Binary.Decode(p[4:])
	if err != nil {
		return 0, err
	}
	if r, ok := m.(wire.QueryResponse); ok && r.Value == c.failOn {
		c.log.add("failed write of %s", describe(m))
		return 0, errors.New("injected write failure")
	}
	c.log.add("wrote %s", describe(m))
	return c.Conn.Write(p)
}

type loggedListener struct {
	net.Listener
	log    *eventLog
	failOn float64
}

func (l loggedListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return loggedConn{Conn: conn, log: l.log, failOn: l.failOn}, nil
}

// lender answers a query with its time as the value, opens a push stream
// for a subscribe request, and logs every response handed back.
type lender struct{ log *eventLog }

func (h lender) HandleMessage(req wire.Message) wire.Message {
	if q, ok := req.(wire.QueryRequest); ok {
		return wire.QueryResponse{Value: q.T}
	}
	return wire.ErrorResponse{Msg: "lender: unexpected request"}
}

var _ Releaser = lender{}

func (h lender) Release(_, resp wire.Message) { h.log.add("released %s", describe(resp)) }

func (h lender) HandleStreamCtx(_ context.Context, req wire.Message) (wire.Message, func(func(wire.Message) error), func(), bool) {
	if _, ok := req.(wire.SubscribeRequest); !ok {
		return nil, nil, nil, false
	}
	run := func(emit func(wire.Message) error) {
		_ = emit(wire.QueryResponse{Value: -2}) // the push
	}
	return wire.QueryResponse{Value: -1}, run, func() {}, true
}

// TestReleaseAfterWrite: the serve loop hands each response back to a
// Releaser exactly once, after its frame was written — also when the
// write failed, which drops the connection — and never the answer to a
// malformed frame, a stream's ack or a push.
func TestReleaseAfterWrite(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	log := &eventLog{}
	srv := Serve(loggedListener{Listener: ln, log: log, failOn: 3}, lender{log: log}, ServerConfig{})
	defer srv.Close()
	dial := func() (net.Conn, *frameReader) {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
			t.Fatal(err)
		}
		return conn, &frameReader{r: conn}
	}
	send := func(conn net.Conn, m wire.Message) {
		t.Helper()
		frame, err := appendFrame(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
	}
	recv := func(rd *frameReader) wire.Message {
		t.Helper()
		m, bad, err := rd.next()
		if err != nil || bad != nil {
			t.Fatal(err, bad)
		}
		return m
	}

	conn, rd := dial()
	send(conn, wire.QueryRequest{T: 1})
	recv(rd)
	// A frame that is not a message: the serve loop answers it itself.
	if _, err := conn.Write([]byte{1, 0, 0, 0, 0xEE}); err != nil {
		t.Fatal(err)
	}
	if m := recv(rd); !isError(m) {
		t.Fatalf("malformed frame answered %#v", m)
	}
	send(conn, wire.QueryRequest{T: 2})
	recv(rd)
	send(conn, wire.QueryRequest{T: 3}) // its write fails: the connection drops
	if _, _, err := rd.next(); err == nil {
		t.Fatal("the connection survived a failed response write")
	}

	conn, rd = dial()
	send(conn, wire.SubscribeRequest{})
	if ack, push := recv(rd), recv(rd); describe(ack) != "answer -1" || describe(push) != "answer -2" {
		t.Fatalf("stream sent %v then %v", describe(ack), describe(push))
	}
	srv.Close() // waits for every connection's goroutines

	want := []string{
		"wrote answer 1", "released answer 1",
		"wrote wire.ErrorResponse",
		"wrote answer 2", "released answer 2",
		"failed write of answer 3", "released answer 3",
		"wrote answer -1", "wrote answer -2",
	}
	if got := log.snapshot(); !slices.Equal(got, want) {
		t.Errorf("events:\n%q\nwant\n%q", got, want)
	}
}

// bigLender is a lender whose answer to a query at t = 0 is a raster
// over one frame.
type bigLender struct{ lender }

func (h bigLender) HandleMessage(req wire.Message) wire.Message {
	if q, ok := req.(wire.QueryRequest); ok && q.T == 0 {
		return wire.HeatmapResponse{Cols: 400, Rows: 400, Values: noise(400 * 400)}
	}
	return h.lender.HandleMessage(req)
}

// TestOversizedAnswerComesBackTyped: an answer too large for one frame
// does not drop the connection. The client reads an ErrorResponse coded
// CodeTooLarge, the handler still takes its original answer back, and
// the same client's next exchange succeeds.
func TestOversizedAnswerComesBackTyped(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	log := &eventLog{}
	srv := Serve(ln, bigLender{lender{log: log}}, ServerConfig{})
	defer srv.Close()
	c, err := Dial(ln.Addr().String(), ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Exchange(wire.QueryRequest{T: 0})
	if err != nil {
		t.Fatal(err)
	}
	if er, ok := resp.(wire.ErrorResponse); !ok || er.Code != wire.CodeTooLarge {
		t.Fatalf("oversized answer came back as %#v, want an ErrorResponse coded CodeTooLarge", resp)
	}
	resp, err = c.Exchange(wire.QueryRequest{T: 5})
	if err != nil || describe(resp) != "answer 5" {
		t.Fatalf("next exchange on the same client: %v (%v), want answer 5", describe(resp), err)
	}
	srv.Close() // waits for the connection's goroutine, which releases after writing
	want := []string{"released wire.HeatmapResponse", "released answer 5"}
	if got := log.snapshot(); !slices.Equal(got, want) {
		t.Errorf("released %q, want %q", got, want)
	}
}

func isError(m wire.Message) bool {
	_, ok := m.(wire.ErrorResponse)
	return ok
}

// TestClientClosesAfterFailedExchange: a client whose exchange timed out
// does not take the late answer to that request for the answer to the
// next: the failure closes the connection and every later exchange fails.
func TestClientClosesAfterFailedExchange(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	timedOut, served := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(served)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		rd := frameReader{r: conn}
		for first := true; ; first = false {
			m, bad, err := rd.next()
			if err != nil || bad != nil {
				return
			}
			if first {
				<-timedOut // answer the first request only once the client gave up on it
			}
			frame, err := appendFrame(nil, wire.QueryResponse{Value: m.(wire.QueryRequest).T})
			if err != nil {
				return
			}
			if _, err := conn.Write(frame); err != nil {
				return
			}
		}
	}()
	c, err := Dial(ln.Addr().String(), ServerConfig{IdleTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Exchange(wire.QueryRequest{T: 1})
	close(timedOut)
	if err == nil {
		t.Fatalf("the unanswered exchange returned %#v, want a timeout", resp)
	}
	if resp, err := c.Exchange(wire.QueryRequest{T: 2}); err == nil {
		t.Errorf("the exchange after a timeout returned %#v with no error", resp)
	}
	c.Close()
	<-served
}
