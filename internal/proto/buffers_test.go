package proto

import (
	"math"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/tuple"
	"repro/internal/wire"
)

// echo answers every request with a message derived from it alone, so a
// caller can tell its own answer from anybody else's.
type echo struct{}

func (echo) HandleMessage(req wire.Message) wire.Message {
	switch m := req.(type) {
	case wire.QueryRequest:
		return wire.QueryResponse{Value: m.T}
	case wire.BatchQueryRequest:
		out := wire.BatchQueryResponse{Items: make([]wire.BatchQueryItem, len(m.Items))}
		for i, it := range m.Items {
			out.Items[i].Value = it.T
		}
		return out
	case wire.IngestRequest:
		return wire.IngestResponse{Ingested: uint32(len(m.Tuples))}
	case wire.HeatmapRequest:
		return wire.HeatmapResponse{Cols: m.Cols, Rows: m.Rows, T: m.T, Values: noise(int(m.Cols) * int(m.Rows))}
	}
	return wire.ErrorResponse{Msg: "echo: unexpected request"}
}

// noise is n values of pseudo-random bits: a raster no prediction
// shortens, so its frame is as large as a raster of n cells gets.
func noise(n int) []float64 {
	v := make([]float64, n)
	x := uint64(1)
	for i := range v {
		x += 0x9E3779B97F4A7C15 // splitmix64
		z := (x ^ x>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		v[i] = math.Float64frombits(z ^ z>>31)
	}
	return v
}

// countingConn counts the Write calls on a connection: with TCP_NODELAY
// (Go's default) every one of them is a segment.
type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// countingListener hands the server connections that count its writes.
type countingListener struct {
	net.Listener
	writes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: conn, writes: l.writes}, nil
}

// serveEcho runs an echo server on loopback and returns a client whose
// writes, like the server's, are counted.
func serveEcho(t testing.TB) (c *Client, serverWrites, clientWrites *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serverWrites, clientWrites = new(atomic.Int64), new(atomic.Int64)
	s := Serve(countingListener{Listener: ln, writes: serverWrites}, echo{}, ServerConfig{})
	t.Cleanup(func() { s.Close() })
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cc := countingConn{Conn: conn, writes: clientWrites}
	c = &Client{cfg: ServerConfig{}.withDefaults(), conn: cc, rd: frameReader{r: cc}}
	t.Cleanup(func() { c.Close() })
	return c, serverWrites, clientWrites
}

// incompressible is n tuples of random bits, whose packed run takes its
// worst case, 52 + 32n bytes (a run of equal tuples takes 52).
func incompressible(n int) []tuple.Raw {
	rng := rand.New(rand.NewSource(int64(n)))
	b := make([]tuple.Raw, n)
	for i := range b {
		b[i] = tuple.Raw{T: math.Float64frombits(rng.Uint64()), X: math.Float64frombits(rng.Uint64()),
			Y: math.Float64frombits(rng.Uint64()), S: math.Float64frombits(rng.Uint64())}
	}
	return b
}

// bigIngest is a request frame just under MaxFrameBytes: the most tuples
// a frame takes, incompressible.
func bigIngest() wire.IngestRequest {
	return wire.IngestRequest{Tuples: incompressible(wire.MaxFrameTuples)}
}

// TestOneWritePerFrame: a frame's length prefix and payload leave in a
// single Write on both ends of a connection.
func TestOneWritePerFrame(t *testing.T) {
	c, serverWrites, clientWrites := serveEcho(t)
	reqs := []wire.Message{
		wire.QueryRequest{T: 1},
		wire.IngestRequest{Tuples: make([]tuple.Raw, 256)},
		wire.HeatmapRequest{T: 2, Cols: 64, Rows: 64},
		bigIngest(),
		wire.QueryRequest{T: 3},
	}
	for _, req := range reqs {
		if _, err := c.Exchange(req); err != nil {
			t.Fatal(err)
		}
	}
	if got := clientWrites.Load(); got != int64(len(reqs)) {
		t.Errorf("client made %d writes for %d requests", got, len(reqs))
	}
	if got := serverWrites.Load(); got != int64(len(reqs)) {
		t.Errorf("server made %d writes for %d responses", got, len(reqs))
	}
}

// TestConnectionBuffersAreBounded: a frame near MaxFrameBytes in either
// direction does not stay pinned to the connection, the everyday frames
// that follow reuse one buffer, and that buffer never exceeds wire.KeepBytes.
func TestConnectionBuffersAreBounded(t *testing.T) {
	c, _, _ := serveEcho(t)
	exchange := func(req wire.Message) {
		t.Helper()
		if _, err := c.Exchange(req); err != nil {
			t.Fatal(err)
		}
		if cap(c.wbuf) > wire.KeepBytes || cap(c.rd.buf) > wire.KeepBytes {
			t.Fatalf("after %T the client holds %d B to write and %d B to read, want ≤ %d each",
				req, cap(c.wbuf), cap(c.rd.buf), wire.KeepBytes)
		}
	}
	exchange(bigIngest()) // ≈ 1 MiB out
	if c.wbuf != nil {
		t.Errorf("the large request's %d B buffer was kept", cap(c.wbuf))
	}
	exchange(wire.HeatmapRequest{T: 1, Cols: 350, Rows: 350}) // ≈ 1 MiB back
	if c.rd.buf != nil {
		t.Errorf("the large response's %d B buffer was kept", cap(c.rd.buf))
	}
	small := wire.IngestRequest{Tuples: incompressible(256)}
	exchange(small)
	exchange(wire.HeatmapRequest{T: 1, Cols: 64, Rows: 64})
	if cap(c.wbuf) == 0 || cap(c.rd.buf) == 0 {
		t.Fatalf("everyday frames left no buffer behind: %d B write, %d B read", cap(c.wbuf), cap(c.rd.buf))
	}
	wbuf, rbuf := &c.wbuf[:1][0], &c.rd.buf[:1][0]
	exchange(small)
	if &c.wbuf[:1][0] != wbuf || &c.rd.buf[:1][0] != rbuf {
		t.Error("a frame that fits the kept buffers was given new ones")
	}

	// The server's side of a connection, driven directly: the same reader
	// serveConn uses and the same writer.
	wrote := make(chan struct{})
	defer func() { <-wrote }() // after the pipe is closed, which unblocks the writer
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		defer close(wrote)
		w := &frameWriter{conn: a, timeout: time.Minute}
		for _, m := range []wire.Message{bigIngest(), small, small} {
			if w.write(m) != nil {
				return
			}
			if cap(w.buf) > wire.KeepBytes {
				t.Errorf("the writer holds %d B after a %T", cap(w.buf), m)
			}
		}
	}()
	rd := frameReader{r: b}
	for i := 0; i < 3; i++ {
		m, bad, err := rd.next()
		if err != nil || bad != nil {
			t.Fatal(err, bad)
		}
		if _, ok := m.(wire.IngestRequest); !ok {
			t.Fatalf("frame %d decoded as %T", i, m)
		}
		if cap(rd.buf) > wire.KeepBytes {
			t.Errorf("the reader holds %d B after frame %d", cap(rd.buf), i)
		}
	}
	if cap(rd.buf) < 256*32 {
		t.Errorf("the reader kept %d B, less than the frame it just read", cap(rd.buf))
	}
}

// TestFrameWriterKeepsFramesWhole: a push stream and request responses
// share one frameWriter (and its one buffer); whatever the interleaving,
// the peer reads whole frames, each intact.
func TestFrameWriterKeepsFramesWhole(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	w := &frameWriter{conn: a, timeout: time.Minute}
	const perWriter = 300
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // the push stream: frames of changing size
		defer wg.Done()
		for seq := 1; seq <= perWriter; seq++ {
			pts := make([]wire.PushPoint, seq%50)
			for i := range pts {
				pts[i] = wire.PushPoint{Index: uint16(i), Value: float64(seq)}
			}
			if err := w.write(wire.Push{ID: 7, Seq: uint64(seq), Points: pts}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // the request/response traffic
		defer wg.Done()
		for n := 1; n <= perWriter; n++ {
			items := make([]wire.BatchQueryItem, n%70)
			for i := range items {
				items[i].Value = float64(n)
			}
			if err := w.write(wire.BatchQueryResponse{Items: items}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	rd := frameReader{r: b}
	pushes, resps := 0, 0
	for pushes+resps < 2*perWriter {
		m, bad, err := rd.next()
		if err != nil || bad != nil {
			t.Fatalf("frame %d: %v %v", pushes+resps, err, bad)
		}
		switch m := m.(type) {
		case wire.Push:
			pushes++
			if m.Seq != uint64(pushes) || len(m.Points) != pushes%50 {
				t.Fatalf("push %d arrived as seq %d with %d points", pushes, m.Seq, len(m.Points))
			}
			for _, p := range m.Points {
				if p.Value != float64(pushes) {
					t.Fatalf("push %d carries another frame's value %v", pushes, p.Value)
				}
			}
		case wire.BatchQueryResponse:
			resps++
			if len(m.Items) != resps%70 {
				t.Fatalf("response %d arrived with %d items", resps, len(m.Items))
			}
			for _, it := range m.Items {
				if it.Value != float64(resps) {
					t.Fatalf("response %d carries another frame's value %v", resps, it.Value)
				}
			}
		default:
			t.Fatalf("unexpected %T", m)
		}
	}
	wg.Wait()
}

// TestConcurrentExchangesGetTheirOwnAnswers: callers sharing one Client
// share its two buffers too; each still gets the answer to its request.
func TestConcurrentExchangesGetTheirOwnAnswers(t *testing.T) {
	c, _, _ := serveEcho(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := float64(g*1000 + i)
				req := wire.BatchQueryRequest{Items: make([]wire.QueryRequest, 1+(g+i)%40)}
				for j := range req.Items {
					req.Items[j].T = id
				}
				resp, err := c.Exchange(req)
				if err != nil {
					t.Error(err)
					return
				}
				br, ok := resp.(wire.BatchQueryResponse)
				if !ok || len(br.Items) != len(req.Items) {
					t.Errorf("caller %d got %T with the wrong shape", g, resp)
					return
				}
				for _, it := range br.Items {
					if it.Value != id {
						t.Errorf("caller %d asked for %v and was answered %v", g, id, it.Value)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestWarmExchangeAllocatesOnlyTheMessages: on a connection whose buffers
// have seen the frame sizes, an upload costs the client nothing and the
// server one decoded batch; nothing is allocated per frame for the frame.
// The upload is random bits, so its frame is the full 8 KiB the kept
// buffers must hold (a run of equal tuples packs to 54 B).
func TestWarmExchangeAllocatesOnlyTheMessages(t *testing.T) {
	c, _, _ := serveEcho(t)
	var req wire.Message = wire.IngestRequest{Tuples: incompressible(256)}
	if _, err := c.Exchange(req); err != nil {
		t.Fatal(err)
	}
	// Client and server run in this process, so the figure covers both
	// ends: the server's decoded batch (8 KiB, 1 allocation) and boxed
	// request and response messages. Per-frame buffers would add four
	// allocations and ≈ 16 KiB.
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := c.Exchange(req); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%v allocs per warm exchange", allocs)
	// Under the race detector, room for the pooled scratch the client
	// packs the upload in and the server unpacks it in.
	ceiling := 6.0 + 2*racePackAllocs
	if allocs > ceiling {
		t.Errorf("a warm 256-tuple exchange = %v allocs over both ends, want ≤ %v", allocs, ceiling)
	}
}
