package cluster

// Unit tests for the shard map and the consistent-hash ring: cell
// determinism, placement determinism across independently-built rings,
// ownership balance, and the consistent-hashing stability property
// (growing the cluster only moves shards onto the new node).

import (
	"math/rand"
	"testing"

	"repro/internal/geo"
	"repro/internal/tuple"
	"repro/internal/wire"
)

var testRegion = geo.Rect{Min: geo.Point{X: -2000, Y: -2000}, Max: geo.Point{X: 2000, Y: 2000}}

func TestCellsDeterministic(t *testing.T) {
	a, err := Cells(testRegion, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Cells(testRegion, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 8 {
		t.Fatalf("got %d cells, want 8", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cell %d differs across identical runs: %v vs %v", i, a[i], b[i])
		}
	}
	for i := range a {
		if !testRegion.Contains(a[i]) {
			t.Errorf("cell %d centroid %v outside region", i, a[i])
		}
	}
}

func TestCellsValidation(t *testing.T) {
	if _, err := Cells(testRegion, 0, 1); err == nil {
		t.Error("0 cells accepted")
	}
	if _, err := Cells(geo.Rect{Min: geo.Point{X: 1}, Max: geo.Point{X: 0}}, 4, 1); err == nil {
		t.Error("invalid region accepted")
	}
	// A degenerate (point) region still partitions.
	cells, err := Cells(geo.Rect{}, 4, 1)
	if err != nil || len(cells) != 4 {
		t.Errorf("degenerate region: cells=%d err=%v", len(cells), err)
	}
}

func testDesc(nodes int) Desc {
	cells, err := Cells(testRegion, 16, 1)
	if err != nil {
		panic(err)
	}
	addrs := make([]string, nodes)
	for i := range addrs {
		addrs[i] = "node-" + string(rune('a'+i))
	}
	return Desc{Nodes: addrs, Cells: cells}
}

func TestRingValidation(t *testing.T) {
	if _, err := NewRing(Desc{Cells: []geo.Point{{}}}); err == nil {
		t.Error("ring without nodes accepted")
	}
	if _, err := NewRing(Desc{Nodes: []string{"a"}}); err == nil {
		t.Error("ring without cells accepted")
	}
	if _, err := NewRing(Desc{Nodes: []string{"a"}, Cells: []geo.Point{{}}, VNodes: -1}); err == nil {
		t.Error("negative vnodes accepted")
	}
}

func TestRingDeterministicAcrossParties(t *testing.T) {
	desc := testDesc(3)
	a, err := NewRing(desc)
	if err != nil {
		t.Fatal(err)
	}
	// A second party reconstructs the ring from the wire exchange.
	b, err := RingFromWire(a.Wire())
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []tuple.Pollutant{tuple.CO2, tuple.CO, tuple.PM} {
		for c := 0; c < a.Cells(); c++ {
			k := ShardKey{Pollutant: pol, Cell: c}
			if a.OwnerKey(k) != b.OwnerKey(k) {
				t.Fatalf("shard %v: owners diverge (%d vs %d)", k, a.OwnerKey(k), b.OwnerKey(k))
			}
		}
	}
	if a.Desc().VNodes != DefaultVNodes {
		t.Errorf("default vnodes not applied: %d", a.Desc().VNodes)
	}
}

func TestRingBalance(t *testing.T) {
	r, err := NewRing(testDesc(3))
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, r.Nodes())
	for _, pol := range []tuple.Pollutant{tuple.CO2, tuple.CO, tuple.PM} {
		for c := 0; c < r.Cells(); c++ {
			counts[r.OwnerKey(ShardKey{Pollutant: pol, Cell: c})]++
		}
	}
	total := 0
	for n, c := range counts {
		if c == 0 {
			t.Errorf("node %d owns no shards", n)
		}
		total += c
		if got := len(r.OwnedCells(n, tuple.CO2)) + len(r.OwnedCells(n, tuple.CO)) + len(r.OwnedCells(n, tuple.PM)); got != c {
			t.Errorf("node %d: OwnedCells reports %d shards, direct count %d", n, got, c)
		}
	}
	if total != 3*r.Cells() {
		t.Fatalf("shards double- or un-owned: %d of %d", total, 3*r.Cells())
	}
}

// TestRingStabilityOnGrowth is the consistent-hashing property the ring
// exists for: adding a node moves shards only onto the new node, never
// between surviving nodes.
func TestRingStabilityOnGrowth(t *testing.T) {
	small, err := NewRing(testDesc(3))
	if err != nil {
		t.Fatal(err)
	}
	big, err := NewRing(testDesc(4))
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for _, pol := range []tuple.Pollutant{tuple.CO2, tuple.CO, tuple.PM} {
		for c := 0; c < small.Cells(); c++ {
			k := ShardKey{Pollutant: pol, Cell: c}
			before, after := small.OwnerKey(k), big.OwnerKey(k)
			if before != after {
				moved++
				if after != 3 {
					t.Fatalf("shard %v moved node %d -> %d instead of onto the new node", k, before, after)
				}
			}
		}
	}
	if moved == 0 {
		t.Error("no shard moved onto the new node (suspicious placement)")
	}
}

func TestOwnerMatchesCellAssignment(t *testing.T) {
	r, err := NewRing(testDesc(3))
	if err != nil {
		t.Fatal(err)
	}
	p := geo.Point{X: 731, Y: -1204}
	cell := r.CellOf(p)
	if got, want := r.Owner(tuple.CO2, p), r.OwnerKey(ShardKey{Pollutant: tuple.CO2, Cell: cell}); got != want {
		t.Fatalf("Owner %d != OwnerKey %d for cell %d", got, want, cell)
	}
	// Different pollutants at the same position may land on different
	// nodes — the pollutant is part of the shard key. Just verify both
	// resolve inside the ring.
	for _, pol := range []tuple.Pollutant{tuple.CO2, tuple.CO, tuple.PM} {
		if o := r.Owner(pol, p); o < 0 || o >= r.Nodes() {
			t.Fatalf("owner %d outside ring", o)
		}
	}
}

func TestNodeConfigValidation(t *testing.T) {
	r, err := NewRing(testDesc(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewNode(NodeConfig{Self: 0}); err == nil {
		t.Error("node without ring accepted")
	}
	if _, err := NewNode(NodeConfig{Ring: r, Self: 5}); err == nil {
		t.Error("node ID outside ring accepted")
	}
	if _, err := NewNode(NodeConfig{Ring: r, Self: 0, Local: nil}); err == nil {
		t.Error("member node without local handler accepted")
	}
	if _, err := NewNode(NodeConfig{Ring: r, Self: 0, Local: stubHandler{}, Transports: make([]Transport, 1)}); err == nil {
		t.Error("transport/node count mismatch accepted")
	}
	if _, err := NewNode(NodeConfig{Ring: r, Self: -1, Local: stubHandler{}}); err == nil {
		t.Error("router with local handler accepted")
	}
	if _, err := NewNode(NodeConfig{Ring: r, Self: -1}); err != nil {
		t.Errorf("pure router rejected: %v", err)
	}
}

type stubHandler struct{}

func (stubHandler) HandleMessage(m wire.Message) wire.Message {
	return wire.ErrorResponse{Msg: "stub"}
}

// TestSplitByOwnerMatchesPerTupleRouting: the counting-pass split gives
// every node exactly the tuples the ring routes to it, in upload order, in
// slices that are full and cut, one after another, from the one lent array
// it returns — so that array can never be overwritten through a
// neighbour's append, and giving it back frees every slice at once.
func TestSplitByOwnerMatchesPerTupleRouting(t *testing.T) {
	ring, err := NewRing(testDesc(3))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	var groups [][]tuple.Raw // reused, as a fan reuses its own
	for _, n := range []int{0, 1, 256, 5000} {
		tuples := make([]tuple.Raw, n)
		want := make([][]tuple.Raw, ring.Nodes())
		for i := range tuples {
			tuples[i] = tuple.Raw{T: float64(i), X: rng.Float64()*4000 - 2000, Y: rng.Float64()*4000 - 2000, S: 1}
			o := ring.Owner(tuple.PM, tuples[i].Pos())
			want[o] = append(want[o], tuples[i])
		}
		got, backing := splitByOwner(ring, tuple.PM, tuples, groups)
		groups = got
		if len(got) != ring.Nodes() {
			t.Fatalf("%d tuples split into %d groups for %d nodes", n, len(got), ring.Nodes())
		}
		if len(backing) != n {
			t.Fatalf("%d tuples split from a backing of %d", n, len(backing))
		}
		off := 0
		for o := range got {
			if len(got[o]) != len(want[o]) || cap(got[o]) != len(got[o]) {
				t.Fatalf("%d tuples: node %d got %d (room for %d), the ring routes it %d", n, o, len(got[o]), cap(got[o]), len(want[o]))
			}
			if len(got[o]) > 0 && &got[o][0] != &backing[off] {
				t.Fatalf("%d tuples: node %d's slice is not cut from the backing at %d", n, o, off)
			}
			off += len(got[o])
			for i := range got[o] {
				if got[o][i] != want[o][i] {
					t.Fatalf("%d tuples: node %d's tuple %d is %v, want %v", n, o, i, got[o][i], want[o][i])
				}
			}
		}
		wire.ReturnTuples(backing)
	}
}
