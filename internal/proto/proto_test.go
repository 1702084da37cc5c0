package proto_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/kmeans"
	"repro/internal/proto"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/tuple"
	"repro/internal/wire"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{{}, {1}, bytes.Repeat([]byte{0xAB}, 1000)}
	for _, p := range payloads {
		if err := proto.WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range payloads {
		got, err := proto.ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame mismatch: %d vs %d bytes", len(got), len(want))
		}
	}
	if _, err := proto.ReadFrame(&buf); err != io.EOF {
		t.Errorf("want io.EOF at stream end, got %v", err)
	}
}

func TestFrameLimits(t *testing.T) {
	if err := proto.WriteFrame(io.Discard, make([]byte, proto.MaxFrameBytes+1)); !errors.Is(err, proto.ErrFrameTooLarge) {
		t.Errorf("oversize write: %v", err)
	}
	// A hostile length prefix must be rejected without allocating.
	var buf bytes.Buffer
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], math.MaxUint32)
	buf.Write(hdr[:])
	if _, err := proto.ReadFrame(&buf); !errors.Is(err, proto.ErrFrameTooLarge) {
		t.Errorf("hostile prefix: %v", err)
	}
}

func TestFrameTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := proto.WriteFrame(&buf, []byte("hello world")); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for cut := 1; cut < len(data); cut++ {
		if _, err := proto.ReadFrame(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation at %d succeeded", cut)
		}
	}
}

// newEngine builds a small engine for protocol tests: 500 tuples in one
// hour-long window over a 2 km square.
func newEngine(t testing.TB) *server.Engine {
	t.Helper()
	st := store.MustOpenMemory(3600)
	rng := rand.New(rand.NewSource(1))
	var b tuple.Batch
	for i := 0; i < 500; i++ {
		x, y := rng.Float64()*2000, rng.Float64()*2000
		b = append(b, tuple.Raw{T: rng.Float64() * 3600, X: x, Y: y, S: 430 + 0.05*x})
	}
	if err := st.Append(b); err != nil {
		t.Fatal(err)
	}
	return server.NewEngine(st, core.Config{Cluster: kmeans.Config{Seed: 2}})
}

// startServer runs a protocol server on a loopback listener.
func startServer(t *testing.T, cfg proto.ServerConfig) (*proto.Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := proto.Serve(ln, newEngine(t), cfg)
	t.Cleanup(func() { s.Close() })
	return s, ln.Addr().String()
}

func TestClientServerQueryRoundTrip(t *testing.T) {
	_, addr := startServer(t, proto.ServerConfig{})
	c, err := proto.Dial(addr, proto.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	resp, err := c.Exchange(wire.QueryRequest{T: 1800, X: 1000, Y: 500})
	if err != nil {
		t.Fatal(err)
	}
	qr, ok := resp.(wire.QueryResponse)
	if !ok {
		t.Fatalf("got %T", resp)
	}
	want := 430 + 0.05*1000
	if math.Abs(qr.Value-want) > 30 {
		t.Errorf("value = %v, want ~%v", qr.Value, want)
	}
}

func TestClientServerModelRoundTrip(t *testing.T) {
	_, addr := startServer(t, proto.ServerConfig{})
	c, err := proto.Dial(addr, proto.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	resp, err := c.Exchange(wire.ModelRequest{T: 1800})
	if err != nil {
		t.Fatal(err)
	}
	mr, ok := resp.(wire.ModelResponse)
	if !ok {
		t.Fatalf("got %T", resp)
	}
	cv, err := wire.CoverFromModelResponse(mr)
	if err != nil {
		t.Fatal(err)
	}
	if cv.Size() == 0 || !cv.ValidAt(1800) {
		t.Errorf("reconstructed cover size=%d", cv.Size())
	}
}

func TestServerErrorResponses(t *testing.T) {
	_, addr := startServer(t, proto.ServerConfig{})
	c, err := proto.Dial(addr, proto.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Query outside any window.
	resp, err := c.Exchange(wire.QueryRequest{T: 1e12})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := resp.(wire.ErrorResponse); !ok {
		t.Errorf("got %T, want ErrorResponse", resp)
	}
}

func TestServerSurvivesMalformedFrame(t *testing.T) {
	_, addr := startServer(t, proto.ServerConfig{})
	// Send garbage on a raw connection; the server must drop it without
	// dying.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := proto.WriteFrame(raw, []byte{0xFF, 0x00, 0x13}); err != nil {
		t.Fatal(err)
	}
	// The server answers malformed-but-framed requests with an error
	// message before deciding anything about the connection.
	payload, err := proto.ReadFrame(raw)
	if err != nil {
		t.Fatalf("expected an error response frame, got %v", err)
	}
	msg, err := wire.Binary.Decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := msg.(wire.ErrorResponse); !ok {
		t.Fatalf("got %T, want ErrorResponse", msg)
	}
	raw.Close()

	// A fresh, well-behaved client still works.
	c, err := proto.Dial(addr, proto.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exchange(wire.QueryRequest{T: 1800, X: 100, Y: 100}); err != nil {
		t.Errorf("healthy client after garbage: %v", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	_, addr := startServer(t, proto.ServerConfig{})
	const clients = 8
	const perClient = 20
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := proto.Dial(addr, proto.ServerConfig{})
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for j := 0; j < perClient; j++ {
				resp, err := c.Exchange(wire.QueryRequest{
					T: 1800, X: float64(i * 100), Y: float64(j * 50)})
				if err != nil {
					t.Error(err)
					return
				}
				if _, ok := resp.(wire.QueryResponse); !ok {
					t.Errorf("client %d: got %T", i, resp)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestClientIsATransport(t *testing.T) {
	// The TCP client slots into the mobile-object strategies unchanged:
	// the model-cache flow works end to end over a real socket.
	_, addr := startServer(t, proto.ServerConfig{})
	c, err := proto.Dial(addr, proto.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var transport cluster.Transport = c
	mc := client.NewModelCache(transport)
	qs := make([]query.Request, 20)
	for i := range qs {
		qs[i] = query.Request{T: 60 * float64(i), X: 500, Y: 500}
	}
	answers, err := client.RunContinuousCtx(context.Background(), mc, qs)
	if err != nil {
		t.Fatal(err)
	}
	local := 0
	for _, a := range answers {
		if a.Local {
			local++
		}
	}
	if local != len(qs)-1 {
		t.Errorf("local answers = %d, want %d (one fetch)", local, len(qs)-1)
	}
}

func TestClientClosedExchangeFails(t *testing.T) {
	_, addr := startServer(t, proto.ServerConfig{})
	c, err := proto.Dial(addr, proto.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exchange(wire.QueryRequest{}); err == nil {
		t.Error("exchange on closed client should fail")
	}
	if err := c.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestServerCloseIdempotentAndFast(t *testing.T) {
	s, addr := startServer(t, proto.ServerConfig{IdleTimeout: time.Hour})
	// An idle connection must not block Close despite the long timeout.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	done := make(chan struct{})
	go func() {
		s.Close()
		s.Close() // idempotent
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("server Close blocked on idle connection")
	}
}

func TestClientServerBatchRoundTrip(t *testing.T) {
	// The whole batch path over real TCP: one frame out, one frame back,
	// per-item values and errors.
	_, addr := startServer(t, proto.ServerConfig{})
	c, err := proto.Dial(addr, proto.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	resp, err := c.Exchange(wire.BatchQueryRequest{Items: []wire.QueryRequest{
		{T: 1800, X: 1000, Y: 500},
		{T: 1e9, X: 0, Y: 0}, // beyond the data: per-item error
		{T: 1800, X: 200, Y: 300},
	}})
	if err != nil {
		t.Fatal(err)
	}
	br, ok := resp.(wire.BatchQueryResponse)
	if !ok {
		t.Fatalf("got %T: %+v", resp, resp)
	}
	if len(br.Items) != 3 {
		t.Fatalf("items = %d, want 3", len(br.Items))
	}
	if br.Items[0].Err != "" || br.Items[2].Err != "" {
		t.Errorf("good items errored: %+v", br.Items)
	}
	if br.Items[1].Err == "" {
		t.Error("out-of-window item must carry its error")
	}
	if want := 430 + 0.05*1000; math.Abs(br.Items[0].Value-want) > 30 {
		t.Errorf("item 0 = %v, want ~%v", br.Items[0].Value, want)
	}
}
