package cluster

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/geo"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// countedTransport answers every exchange with a value, or — when fail
// is set — fails it, and counts how often it is closed.
type countedTransport struct {
	addr   string
	fail   bool
	closes atomic.Int32
}

func (c *countedTransport) Exchange(wire.Message) (wire.Message, error) {
	if c.fail {
		return nil, errors.New("injected exchange failure")
	}
	return wire.QueryResponse{Value: 1}, nil
}

func (c *countedTransport) Close() error {
	c.closes.Add(1)
	return nil
}

// countingDialer records every transport it dials. The first transport
// it dials to failFirst fails its exchanges, so the lazy transport in
// front of it drops it and dials again.
type countingDialer struct {
	failFirst string

	mu     sync.Mutex
	dialed []*countedTransport
}

func (d *countingDialer) dial(addr string) (Transport, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	t := &countedTransport{addr: addr, fail: addr == d.failFirst && d.countLocked(addr) == 0}
	d.dialed = append(d.dialed, t)
	return t, nil
}

func (d *countingDialer) count(addr string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.countLocked(addr)
}

func (d *countingDialer) countLocked(addr string) int {
	n := 0
	for _, t := range d.dialed {
		if t.addr == addr {
			n++
		}
	}
	return n
}

func (d *countingDialer) all() []*countedTransport {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]*countedTransport(nil), d.dialed...)
}

// ownedBy returns a position whose pol shard ring places on node.
func ownedBy(t *testing.T, ring *Ring, node int) geo.Point {
	t.Helper()
	for x := -1900.0; x <= 1900; x += 100 {
		for y := -1900.0; y <= 1900; y += 100 {
			if p := (geo.Point{X: x, Y: y}); ring.Owner(tuple.CO2, p) == node {
				return p
			}
		}
	}
	t.Fatalf("no position on node %d's shards", node)
	return geo.Point{}
}

// TestCloseClosesEveryDialedTransport: a node owns the lazy transports
// in its table — the ones it was built with and the ones a newer ring
// adds — and Close closes every connection they dialed exactly once,
// including one dropped after a failed exchange and ones dialed by
// queries racing Close. A peer never asked is never dialed, and an
// exchange after Close fails without dialing.
func TestCloseClosesEveryDialedTransport(t *testing.T) {
	region := geo.Rect{Min: geo.Point{X: -2000, Y: -2000}, Max: geo.Point{X: 2000, Y: 2000}}
	cells, err := Cells(region, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := NewRing(Desc{Nodes: []string{"a:1", "b:2", "c:3"}, Cells: cells})
	if err != nil {
		t.Fatal(err)
	}
	d := &countingDialer{failFirst: "b:2"}
	n, err := NewNode(NodeConfig{Ring: ring, Self: -1, Transports: LazyTransports(ring, -1, d.dial), Dial: d.dial})
	if err != nil {
		t.Fatal(err)
	}
	query := func(r *Ring, node int) wire.Message {
		p := ownedBy(t, r, node)
		return n.HandleMessage(wire.QueryRequest{T: 1, X: p.X, Y: p.Y, Pollutant: tuple.CO2})
	}
	if _, ok := query(ring, 1).(wire.ErrorResponse); !ok {
		t.Fatal("the injected exchange failure did not fail the query")
	}
	if _, ok := query(ring, 1).(wire.QueryResponse); !ok {
		t.Fatal("the lazy transport did not redial after a failed exchange")
	}
	query(ring, 0)

	// A newer ring adds node 3; its transport is the node's too.
	desc, err := ring.JoinDesc("d:4")
	if err != nil {
		t.Fatal(err)
	}
	grown, err := NewRing(desc)
	if err != nil {
		t.Fatal(err)
	}
	if !n.adoptRing(grown) {
		t.Fatal("the node did not adopt the newer ring")
	}
	query(grown, 3)

	racing := []geo.Point{ownedBy(t, grown, 0), ownedBy(t, grown, 1)}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				p := racing[i%2]
				n.HandleMessage(wire.QueryRequest{T: 1, X: p.X, Y: p.Y, Pollutant: tuple.CO2})
			}
		}()
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	if got := d.count("b:2"); got != 2 {
		t.Errorf("node 1 dialed %d times, want 2 (the failed transport and its replacement)", got)
	}
	if got := d.count("c:3"); got != 0 {
		t.Errorf("node 2, never asked, was dialed %d times", got)
	}
	for _, tr := range d.all() {
		if c := tr.closes.Load(); c != 1 {
			t.Errorf("a transport to %s was closed %d times, want once", tr.addr, c)
		}
	}
	dialed := len(d.all())
	if _, ok := query(grown, 3).(wire.ErrorResponse); !ok {
		t.Error("an exchange after Close did not fail")
	}
	if len(d.all()) != dialed {
		t.Error("an exchange after Close dialed")
	}
}
