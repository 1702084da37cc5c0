package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/geo"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// ackHandler acknowledges every upload without keeping it: a local engine
// that costs a commit nothing, so a measurement sees only the node's own
// commit path.
type ackHandler struct{}

func (ackHandler) HandleMessage(m wire.Message) wire.Message {
	if ing, ok := m.(wire.IngestRequest); ok {
		return wire.IngestResponse{Ingested: uint32(len(ing.Tuples))}
	}
	return wire.ErrorResponse{Msg: "ack: not an upload"}
}

// ackTransport is a peer that acknowledges every forwarded upload without
// keeping it, so a measurement sees only the routing node's own work.
type ackTransport struct{}

func (ackTransport) Exchange(req wire.Message) (wire.Message, error) {
	if f, ok := req.(wire.Forwarded); ok {
		req = f.Inner
	}
	return ackHandler{}.HandleMessage(req), nil
}

// commitNode is node 0 of a 3-node R = 2 ring over the given number of
// cells. Its peers have no transport, so every frame its stream workers
// take fails at once and is counted; commit applies one 256-tuple slice
// and waits until each peer's worker has taken its frame.
func commitNode(tb testing.TB, cells int) (commit func()) {
	tb.Helper()
	cs := make([]geo.Point, cells)
	for i := range cs {
		cs[i] = geo.Point{X: float64(i)}
	}
	ring, err := NewRing(Desc{Nodes: []string{"a", "b", "c"}, Cells: cs, Replicas: 2})
	if err != nil {
		tb.Fatal(err)
	}
	n, err := NewNode(NodeConfig{Ring: ring, Self: 0, Local: ackHandler{}, Default: tuple.CO2,
		Replication: ReplicationConfig{NewMirror: func() Handler { return ackHandler{} }}})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { n.Close() })
	peers := int64(len(ring.ReplicaPeers(0, tuple.CO2)))
	if peers == 0 {
		tb.Fatalf("%d cells: node 0 streams to no peer", cells)
	}
	req := wire.IngestRequest{Pollutant: tuple.CO2, Tuples: make([]tuple.Raw, 256)}
	for i := range req.Tuples {
		req.Tuples[i] = tuple.Raw{T: float64(i), X: float64(i), Y: 1, S: 400}
	}
	var sent int64
	return func() {
		if _, ok := n.localIngest(context.Background(), req).(wire.IngestResponse); !ok {
			tb.Fatal("commit refused")
		}
		sent += peers
		for n.repl.streamErrs.Load() < sent {
			runtime.Gosched()
		}
	}
}

// TestReplicatedCommitAllocsIndependentOfCells: a primary's commit looks
// up the peers it streams to in its ring's table, so what a commit
// allocates does not depend on how many cells the ring has. On one P the
// stream workers run only while the commit waits for them, so every
// commit reuses the lent copy the last one gave back, and the pooled
// holder that shares it between the workers. What is left is the local
// engine's answer, boxed, and the commit's share of a packed chunk of the
// replication log, which holds the stub engine's runs by value.
func TestReplicatedCommitAllocsIndependentOfCells(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var allocs [2]float64
	for i, cells := range []int{16, 64} {
		allocs[i] = testing.AllocsPerRun(64, commitNode(t, cells))
		t.Logf("%d cells: %.2f allocs per 256-tuple commit", cells, allocs[i])
	}
	if allocs[0] != allocs[1] {
		t.Errorf("a 256-tuple commit allocates %.2f at 16 cells and %.2f at 64, want the same", allocs[0], allocs[1])
	}
	const ceiling = 2
	if allocs[0] > ceiling {
		t.Errorf("a 256-tuple commit allocates %.2f, want ≤ %d", allocs[0], ceiling)
	}
}

// BenchmarkReplicatedCommit256 is one 256-tuple commit on a primary of an
// R = 2 ring, at the benchmark's 16 cells and at 64.
func BenchmarkReplicatedCommit256(b *testing.B) {
	for _, cells := range []int{16, 64} {
		b.Run(fmt.Sprintf("cells=%d", cells), func(b *testing.B) {
			commit := commitNode(b, cells)
			b.ReportAllocs()
			for range b.N {
				commit()
			}
		})
	}
}

// bytesPerRun is the median of five rounds' heap bytes allocated per call
// of f, after one warm-up call.
func bytesPerRun(f func()) uint64 {
	const calls = 50
	f()
	var per []uint64
	for range 5 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for range calls {
			f()
		}
		runtime.ReadMemStats(&m1)
		per = append(per, (m1.TotalAlloc-m0.TotalAlloc)/calls)
	}
	slices.Sort(per)
	return per[len(per)/2]
}

// TestIngestSplitAllocs: a router splits an upload by owner into lent
// memory, and gives it back once every owner has acknowledged its slice,
// so a warm upload routed through a 3-node ring allocates nothing that
// grows with it — a few small objects per upload, where the split once
// cost an owner index and a copy of the upload (9 KiB at 256 tuples). The
// slices go out on a pooled fan, so an upload pays no goroutine, closure,
// WaitGroup or owner count per leg either.
func TestIngestSplitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	// One P: a split given back to its pool is the next one lent.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ring, err := NewRing(testDesc(3))
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(NodeConfig{Ring: ring, Self: -1, Transports: []Transport{ackTransport{}, ackTransport{}, ackTransport{}}})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	rng := rand.New(rand.NewSource(43))
	perUpload := func(size int) uint64 {
		req := wire.IngestRequest{Pollutant: tuple.CO2, Tuples: make([]tuple.Raw, size)}
		for i := range req.Tuples {
			req.Tuples[i] = tuple.Raw{T: float64(i), X: rng.Float64()*4000 - 2000, Y: rng.Float64()*4000 - 2000, S: 400}
		}
		return bytesPerRun(func() {
			if resp := n.HandleMessage(req); resp != (wire.IngestResponse{Ingested: uint32(size)}) {
				t.Fatalf("a %d-tuple upload answered %#v", size, resp)
			}
		})
	}
	small, large := perUpload(256), perUpload(1024)
	t.Logf("routed upload = %d B at 256 tuples, %d B at 1024", small, large)
	if small > 1<<10 || large > small+128 {
		t.Errorf("routed upload = %d B at 256 tuples and %d B at 1024, want ≤ 1 KiB and no growth", small, large)
	}
	// Per leg its slice and its Forwarded frame, boxed; then the answer.
	// The tally lives in the pooled fan (it cost one more), and a
	// goroutine per leg cost 17.
	const ceiling = 7
	upload := wire.IngestRequest{Pollutant: tuple.CO2, Tuples: make([]tuple.Raw, 256)}
	for i := range upload.Tuples {
		upload.Tuples[i] = tuple.Raw{T: float64(i), X: rng.Float64()*4000 - 2000, Y: rng.Float64()*4000 - 2000, S: 400}
	}
	var req wire.Message = upload
	allocs := testing.AllocsPerRun(50, func() { n.HandleMessage(req) })
	t.Logf("routed upload = %.2f allocs at 256 tuples", allocs)
	if allocs > ceiling {
		t.Errorf("routed upload = %.2f allocs at 256 tuples, want ≤ %d", allocs, ceiling)
	}
}
