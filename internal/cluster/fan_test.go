package cluster

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// gateTransport is a peer that holds every forwarded batch until its gate
// opens, then answers each item with the peer's own node ID.
type gateTransport struct {
	node    int
	waiting *atomic.Int32
	gate    chan struct{}
}

func (g gateTransport) Exchange(req wire.Message) (wire.Message, error) {
	g.waiting.Add(1)
	<-g.gate
	br := req.(wire.Forwarded).Inner.(wire.BatchQueryRequest)
	items := make([]wire.BatchQueryItem, len(br.Items))
	for i := range items {
		items[i].Value = float64(g.node)
	}
	return wire.BatchQueryResponse{Items: items}, nil
}

// TestLegWorkersSettleAndStop: a burst of concurrent routes runs every leg
// at once — a dispatch never waits for a busy worker — so the node starts
// more leg workers than it keeps. Once the burst is answered, the workers
// settle at or below maxIdleLegWorkers, and after Close none is running.
func TestLegWorkersSettleAndStop(t *testing.T) {
	base := runtime.NumGoroutine()
	ring, err := NewRing(testDesc(3))
	if err != nil {
		t.Fatal(err)
	}
	var waiting atomic.Int32
	gate := make(chan struct{})
	ts := make([]Transport, 3)
	for i := range ts {
		ts[i] = gateTransport{node: i, waiting: &waiting, gate: gate}
	}
	n, err := NewNode(NodeConfig{Ring: ring, Self: -1, Transports: ts})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(62))
	route := wire.BatchQueryRequest{Items: make([]wire.QueryRequest, 60)}
	owners := make([]int, len(route.Items))
	spans := make(map[int]bool)
	for i := range route.Items {
		p := geo.Point{X: rng.Float64()*4000 - 2000, Y: rng.Float64()*4000 - 2000}
		route.Items[i] = wire.QueryRequest{T: 1, X: p.X, Y: p.Y, Pollutant: tuple.CO2}
		owners[i] = ring.Owner(tuple.CO2, p)
		spans[owners[i]] = true
	}
	if len(spans) != 3 {
		t.Fatalf("the route spans %d owners, want 3", len(spans))
	}

	// Each route runs one leg on its caller and hands two to workers.
	const routes = 3 * maxIdleLegWorkers
	var wg sync.WaitGroup
	for range routes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := n.HandleMessage(route)
			br, ok := resp.(wire.BatchQueryResponse)
			if !ok || len(br.Items) != len(owners) {
				t.Errorf("route answered %#v", resp)
				return
			}
			for i, it := range br.Items {
				if it.Err != "" || it.Value != float64(owners[i]) {
					t.Errorf("item %d answered %+v, want node %d's answer", i, it, owners[i])
					return
				}
			}
		}()
	}
	deadline := time.Now().Add(30 * time.Second)
	for waiting.Load() < 3*routes {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d legs reached their peers at once", waiting.Load(), 3*routes)
		}
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()

	// What runs beside the test's own goroutines now is the node's leg
	// workers.
	settle := func(when string, most int) {
		t.Helper()
		for runtime.NumGoroutine() > base+most {
			if time.Now().After(deadline) {
				t.Fatalf("%s %d goroutines run beside the test's %d, want at most %d", when, runtime.NumGoroutine()-base, base, most)
			}
			runtime.Gosched()
		}
	}
	settle("after the burst", maxIdleLegWorkers)
	if idle := n.legIdle.Load(); idle > maxIdleLegWorkers {
		t.Errorf("after the burst %d leg workers wait, want at most %d", idle, maxIdleLegWorkers)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if idle := n.legIdle.Load(); idle != 0 {
		t.Errorf("after Close %d leg workers wait, want none", idle)
	}
	settle("after Close", 0)
}
