package proto_test

import (
	"net"
	"testing"

	"repro/internal/core"
	"repro/internal/kmeans"
	"repro/internal/proto"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// BenchmarkServeIngestFrame is one 256-tuple upload over a real loopback
// connection into a durable engine: the client's frame, the server's read,
// decode, pipeline, WAL append (no fsync: the figure of interest is B/op)
// and window append, the response and the cover rebuilds the writes cause.
// B/op and allocs/op cover both ends, which share the process.
func BenchmarkServeIngestFrame(b *testing.B) {
	st, err := store.Open(store.Config{WindowLength: 3600, Retain: 24, Dir: b.TempDir(), Sync: store.SyncNever()})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	eng := server.NewEngine(st, core.Config{Cluster: kmeans.Config{Seed: 2}})
	defer eng.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := proto.Serve(ln, eng, proto.ServerConfig{})
	defer srv.Close()
	c, err := proto.Dial(ln.Addr().String(), proto.ServerConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	// Stream time advances 256 s per upload, so windows fill, close and are
	// evicted as in a long-running deployment.
	req := wire.IngestRequest{Tuples: make([]tuple.Raw, 256)}
	upload := func(i int) {
		for j := range req.Tuples {
			t := float64(i*256 + j)
			req.Tuples[j] = tuple.Raw{T: t, X: float64((j * 37) % 2000), Y: float64((j * 91) % 2000), S: 430 + 0.01*t}
		}
		resp, err := c.Exchange(req)
		if _, ok := resp.(wire.IngestResponse); err != nil || !ok {
			b.Fatalf("upload %d: %v, %v", i, resp, err)
		}
	}
	const warm = 64 // four windows: later ones are sized from their predecessors
	for i := 0; i < warm; i++ {
		upload(i)
	}
	b.ReportAllocs()
	b.SetBytes(256 * 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		upload(warm + i)
	}
}

// BenchmarkServeBatch100 is the commuter's read over TCP: a 100-point
// route from proto.Client to an engine on a loopback connection, its cover
// built. The server answers into lent items and reads the decoded request
// in place; B/op covers both ends, which share the process (the client's
// decoded answer, the server's decoded request).
func BenchmarkServeBatch100(b *testing.B) {
	eng := newEngine(b)
	defer eng.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := proto.Serve(ln, eng, proto.ServerConfig{})
	defer srv.Close()
	c, err := proto.Dial(ln.Addr().String(), proto.ServerConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	req := wire.BatchQueryRequest{Items: make([]wire.QueryRequest, 100)}
	for i := range req.Items {
		req.Items[i] = wire.QueryRequest{T: 36 * float64(i), X: 20 * float64(i), Y: 2000 - 19*float64(i)}
	}
	exchange := func() {
		resp, err := c.Exchange(req)
		br, ok := resp.(wire.BatchQueryResponse)
		if err != nil || !ok || len(br.Items) != len(req.Items) || br.Items[0].Err != "" {
			b.Fatalf("route: %v, %#v", err, resp)
		}
	}
	exchange()
	b.ReportAllocs()
	for b.Loop() {
		exchange()
	}
}
