package repro

// What a clustered platform does with its peer connections: it closes
// them with itself, and it never mistakes a batch too large for one wire
// frame for a dead owner.

import (
	"context"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
)

// countingProxy forwards every connection it accepts to target and
// counts the connections open through it.
type countingProxy struct {
	ln     net.Listener
	target string
	open   atomic.Int32
}

func newCountingProxy(t *testing.T, target string) *countingProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &countingProxy{ln: ln, target: target}
	go p.serve()
	t.Cleanup(func() { ln.Close() })
	return p
}

func (p *countingProxy) addr() string { return p.ln.Addr().String() }

func (p *countingProxy) serve() {
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.open.Add(1)
		go func() {
			defer p.open.Add(-1)
			defer c.Close()
			up, err := net.Dial("tcp", p.target)
			if err != nil {
				return
			}
			defer up.Close()
			// Either side closing ends the pair; the other copy returns once
			// the deferred closes run.
			done := make(chan struct{}, 2)
			go func() { _, _ = io.Copy(up, c); done <- struct{}{} }()
			go func() { _, _ = io.Copy(c, up); done <- struct{}{} }()
			<-done
		}()
	}
}

// waitClosed waits until no connection is open through p.
func (p *countingProxy) waitClosed(t *testing.T, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for p.open.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d connections still open through the proxy", what, p.open.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// openPair opens a 2-node cluster whose ring lists node 1 at addr1 —
// its own listener, or a proxy in front of it — and returns both
// platforms with node 1 listening on listen1.
func openPair(t *testing.T, addr0, addr1, listen1 string) (p0, p1 *Platform) {
	t.Helper()
	open := func(id int, listen string) *Platform {
		p, err := Open(Config{
			WindowSeconds: 3600,
			Pollutants:    []Pollutant{CO2},
			Cluster: ClusterConfig{
				Nodes: []string{addr0, addr1}, NodeID: id, Cells: 6,
				Region: Rect{Min: Point{X: -1500, Y: -1500}, Max: Point{X: 1500, Y: 1500}},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		srv, _, err := p.ListenTCP(listen)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		return p
	}
	return open(0, addr0), open(1, listen1)
}

// foreignReading is a reading on node 1's shards.
func foreignReading(t *testing.T, p0 *Platform) Reading {
	t.Helper()
	for x := -1400.0; x <= 1400; x += 200 {
		for y := -1400.0; y <= 1400; y += 200 {
			if !p0.Owns(CO2, x, y) {
				return Reading{T: 600, X: x, Y: y, S: clusterField(x, y)}
			}
		}
	}
	t.Fatal("node 0 owns every reading")
	return Reading{}
}

// TestCloseReleasesPeerConnections: the connection node 0 dialed to its
// peer closes when node 0 does, not at the peer's idle timeout.
func TestCloseReleasesPeerConnections(t *testing.T) {
	addrs := reservePorts(t, 2)
	proxy := newCountingProxy(t, addrs[1])
	p0, _ := openPair(t, addrs[0], proxy.addr(), addrs[1])
	ctx := context.Background()
	r := foreignReading(t, p0)
	if err := p0.Ingest(ctx, CO2, []Reading{r}); err != nil {
		t.Fatal(err)
	}
	if _, err := p0.Query(ctx, Request{T: r.T, X: r.X, Y: r.Y, Pollutant: CO2}); err != nil {
		t.Fatal(err)
	}
	if proxy.open.Load() == 0 {
		t.Fatal("node 0 reached its peer without a connection through the proxy")
	}
	if err := p0.Close(); err != nil {
		t.Fatal(err)
	}
	proxy.waitClosed(t, "after Close")
}

// TestCloseReleasesJoinSeedConnection: a joiner's connection to its seed
// is closed as soon as the join call returns.
func TestCloseReleasesJoinSeedConnection(t *testing.T) {
	addrs := reservePorts(t, 3)
	p0, _ := openPair(t, addrs[0], addrs[1], addrs[1])
	proxy := newCountingProxy(t, addrs[0])
	joiner, err := Open(Config{
		WindowSeconds: 3600,
		Pollutants:    []Pollutant{CO2},
		Cluster:       ClusterConfig{Join: proxy.addr(), Advertise: addrs[2]},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer joiner.Close()
	if p0.ClusterEpoch() != 0 {
		t.Fatalf("the announce moved the seed to epoch %d", p0.ClusterEpoch())
	}
	proxy.waitClosed(t, "after the join call")
}

// TestOversizedRoutedBatchIsTooLarge: a node 0 batch whose share for
// node 1 does not fit one wire frame — 45 000 requests, or 15 000 whose
// answers each carry an out-of-window error — fails item by item with
// ErrTooLarge. Node 1 is alive, so no item reads ErrNodeUnreachable and
// no transport error is counted.
func TestOversizedRoutedBatchIsTooLarge(t *testing.T) {
	addrs := reservePorts(t, 2)
	p0, _ := openPair(t, addrs[0], addrs[1], addrs[1])
	ctx := context.Background()
	r := foreignReading(t, p0)
	if err := p0.Ingest(ctx, CO2, []Reading{r}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		n    int
		at   float64
	}{
		{"request over one frame", 45000, r.T},
		{"answer over one frame", 15000, 1e9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reqs := make([]Request, tc.n)
			for i := range reqs {
				reqs[i] = Request{T: tc.at, X: r.X, Y: r.Y, Pollutant: CO2}
			}
			rs, err := p0.QueryBatch(ctx, reqs)
			if err != nil {
				t.Fatal(err)
			}
			for i, res := range rs {
				if !errors.Is(res.Err, cluster.ErrTooLarge) || errors.Is(res.Err, ErrNodeUnreachable) {
					t.Fatalf("item %d: %v, want ErrTooLarge", i, res.Err)
				}
			}
			if st := p0.ClusterStats(); st.Errors != 0 {
				t.Errorf("ClusterStats().Errors = %d, want 0", st.Errors)
			}
		})
	}
	// The connection to node 1 survived: a small batch still answers.
	rs, err := p0.QueryBatch(ctx, []Request{{T: r.T, X: r.X, Y: r.Y, Pollutant: CO2}})
	if err != nil || rs[0].Err != nil {
		t.Fatalf("small batch after the oversized ones: %v / %v", err, rs[0].Err)
	}
}
