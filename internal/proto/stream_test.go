package proto_test

// Push-stream tests: DialStream against a real engine served over TCP —
// subscribe ack, initial resync push, an incremental delta after an
// ingest, refusal of bad subscriptions, and teardown in both
// directions (client Close, server Close).

import (
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// startStreamServer is startServer with the engine handle exposed, so
// stream tests can ingest server-side.
func startStreamServer(t *testing.T) (*server.Engine, *proto.Server, string) {
	t.Helper()
	eng := newEngine(t)
	t.Cleanup(func() { eng.Close() })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := proto.Serve(ln, eng, proto.ServerConfig{})
	t.Cleanup(func() { s.Close() })
	return eng, s, ln.Addr().String()
}

func recvFrame(t *testing.T, st *proto.Stream) wire.Message {
	t.Helper()
	select {
	case m, ok := <-st.C():
		if !ok {
			t.Fatalf("stream closed early: %v", st.Err())
		}
		return m
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for a pushed frame")
	}
	return nil
}

func TestStreamSubscribePush(t *testing.T) {
	eng, _, addr := startStreamServer(t)

	st, err := proto.DialStream(addr, proto.ServerConfig{}, wire.SubscribeRequest{
		Pollutant: tuple.CO2,
		Points: []wire.SubPoint{
			{T: 600, X: 500, Y: 500},
			{T: 600, X: 1500, Y: 1500},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	ack, ok := st.Ack().(wire.SubscribeAck)
	if !ok || ack.Points != 2 || ack.ID == 0 {
		t.Fatalf("ack = %#v, want a SubscribeAck for 2 points", st.Ack())
	}

	first, ok := recvFrame(t, st).(wire.Push)
	if !ok || !first.Resync || first.Seq != 1 || len(first.Points) != 2 || first.ID != ack.ID {
		t.Fatalf("first frame = %#v, want the seq-1 resync push", first)
	}

	// Ingest into the subscribed window: a delta frame arrives.
	var b tuple.Batch
	for i := 0; i < 200; i++ {
		b = append(b, tuple.Raw{T: 300 + float64(i), X: float64(10 * i % 2000), Y: float64(7 * i % 2000), S: 900})
	}
	if err := eng.Ingest(context.Background(), tuple.CO2, b); err != nil {
		t.Fatal(err)
	}
	delta, ok := recvFrame(t, st).(wire.Push)
	if !ok || delta.Resync || delta.Seq <= first.Seq || len(delta.Points) == 0 {
		t.Fatalf("delta frame = %#v", delta)
	}
	// The push follows the install of the rebuilt cover (not the write
	// that dirtied the window), so it carries the rebuilt values: what
	// the quiesced engine answers now.
	eng.Scheduler().Wait()
	at := [][2]float64{{500, 500}, {1500, 1500}}
	for _, p := range delta.Points {
		want, err := eng.Query(context.Background(), query.Request{T: 600, X: at[p.Index][0], Y: at[p.Index][1], Pollutant: tuple.CO2})
		if err != nil {
			t.Fatal(err)
		}
		if p.Value != want {
			t.Fatalf("pushed point %d = %v, engine answers %v: push preceded the install", p.Index, p.Value, want)
		}
	}

	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestStreamRefused(t *testing.T) {
	_, addr := startServer(t, proto.ServerConfig{})
	// Unserved pollutant: the server answers the subscribe with an
	// ErrorResponse, which DialStream surfaces as a refusal.
	_, err := proto.DialStream(addr, proto.ServerConfig{}, wire.SubscribeRequest{
		Pollutant: tuple.PM,
		Points:    []wire.SubPoint{{T: 600, X: 1, Y: 1}},
	})
	if err == nil {
		t.Fatal("subscription for an unserved pollutant was accepted")
	}
}

func TestStreamServerClose(t *testing.T) {
	_, srv, addr := startStreamServer(t)
	st, err := proto.DialStream(addr, proto.ServerConfig{}, wire.SubscribeRequest{
		Pollutant: tuple.CO2,
		Points:    []wire.SubPoint{{T: 600, X: 1, Y: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	recvFrame(t, st) // initial resync

	// Server shutdown must not hang on the open stream and must end the
	// client's frame channel.
	done := make(chan struct{})
	go func() { srv.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("server Close hung on an open push stream")
	}
	for {
		select {
		case _, ok := <-st.C():
			if !ok {
				return
			}
		case <-time.After(10 * time.Second):
			t.Fatal("client frame channel never closed after server Close")
		}
	}
}
