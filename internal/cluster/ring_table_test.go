package cluster

// Placement pins: the ring's lookups must answer exactly what placement
// puts where, shard for shard, on every ring shape the cluster builds —
// the benchmark's, a replicated ring with a tombstone, and a wide one —
// and on seeded random descriptions checked against a test-side copy of
// the rule: owners from the consistent-hash walk, replicas the owner's
// next R-1 live node IDs.

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/geo"
	"repro/internal/tuple"
)

// validPollutants are the pollutants a ring places.
var validPollutants = []tuple.Pollutant{tuple.CO2, tuple.CO, tuple.PM}

// placementDigest hashes every placement lookup of r: each valid shard's
// owner and replica set, then each node's replica peers and owned cells
// per pollutant.
func placementDigest(r *Ring) uint64 {
	h := fnv.New64a()
	put := func(v int) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
		h.Write(b[:])
	}
	list := func(s []int) {
		put(len(s))
		for _, v := range s {
			put(v)
		}
	}
	for _, pol := range validPollutants {
		for c := 0; c < r.Cells(); c++ {
			k := ShardKey{Pollutant: pol, Cell: c}
			put(r.OwnerKey(k))
			list(r.ReplicasFor(k))
		}
	}
	for n := 0; n < r.Nodes(); n++ {
		for _, pol := range validPollutants {
			list(r.ReplicaPeers(n, pol))
			list(r.OwnedCells(n, pol))
		}
	}
	return h.Sum64()
}

// goldenDesc is a ring description with the given slots (an empty
// address is a tombstone) and a trivial cell lattice: placement reads
// only cell indexes, never their positions.
func goldenDesc(nodes []string, cells, vnodes, replicas int) Desc {
	cs := make([]geo.Point, cells)
	for i := range cs {
		cs[i] = geo.Point{X: float64(i), Y: float64(-i)}
	}
	return Desc{Nodes: nodes, Cells: cs, VNodes: vnodes, Replicas: replicas}
}

// TestRingPlacementGolden pins the placement of three ring shapes to
// recorded digests: owners where the hash walk puts them, and on the two
// replicated shapes each owner's R-1 live ID successors as its mirrors.
// The unreplicated digest predates per-node mirrors: owners never moved.
func TestRingPlacementGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		desc Desc
		want uint64
	}{
		{"benchmark 3 nodes 16 cells R=2", goldenDesc([]string{"a", "b", "c"}, 16, 0, 2), 0xc48f5cebe82d6f49},
		{"4 nodes R=3 one tombstone", goldenDesc([]string{"a", "b", "", "d", "e"}, 16, 0, 3), 0x8b316a1ded97af2e},
		{"7 nodes 64 cells", goldenDesc([]string{"a", "b", "c", "d", "e", "f", "g"}, 64, 32, 0), 0x3c2b3a60bdc6d6c1},
	} {
		r, err := NewRing(tc.desc)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := placementDigest(r); got != tc.want {
			t.Errorf("%s: placement digest %#x, want %#x", tc.name, got, tc.want)
		}
	}
}

// walkPoints is the hash circle of the consistent-hash walk, kept apart
// from the ring: the virtual nodes of every live slot sorted by (hash,
// node).
func walkPoints(d Desc) []ringPoint {
	vnodes := d.VNodes
	if vnodes == 0 {
		vnodes = DefaultVNodes
	}
	var pts []ringPoint
	for n, addr := range d.Nodes {
		if addr == "" {
			continue
		}
		for v := 0; v < vnodes; v++ {
			pts = append(pts, ringPoint{hash: vnodeHash(n, v), node: n})
		}
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].hash != pts[j].hash {
			return pts[i].hash < pts[j].hash
		}
		return pts[i].node < pts[j].node
	})
	return pts
}

// walkReplicas places a shard: its owner is the first virtual node at
// or clockwise of its key on pts, its other R-1 replicas the live slots
// that follow the owner in ID order, wrapping past the last slot.
func walkReplicas(d Desc, pts []ringPoint, R int, k ShardKey) []int {
	h := keyHash(k)
	i := sort.Search(len(pts), func(i int) bool { return pts[i].hash >= h })
	owner := pts[i%len(pts)].node
	out := []int{owner}
	for id := (owner + 1) % len(d.Nodes); len(out) < R; id = (id + 1) % len(d.Nodes) {
		if d.Nodes[id] != "" {
			out = append(out, id)
		}
	}
	return out
}

// randomDesc draws a ring description: 1–7 slots with tombstones (at
// least one live), 1–64 cells, 1–128 virtual nodes and R in 1..live.
func randomDesc(rng *rand.Rand) Desc {
	nodes := make([]string, 1+rng.Intn(7))
	live := 0
	for i := range nodes {
		if rng.Intn(4) > 0 {
			nodes[i] = string(rune('a' + i))
			live++
		}
	}
	if live == 0 {
		nodes[rng.Intn(len(nodes))] = "z"
		live = 1
	}
	return goldenDesc(nodes, 1+rng.Intn(64), 1+rng.Intn(128), 1+rng.Intn(live))
}

// checkRingAgainstWalk compares every lookup of the ring built from d
// with what walkReplicas places, and fails at the first disagreement or at a
// slice a caller could append into the ring's table through.
func checkRingAgainstWalk(t *testing.T, seed int64, d Desc) {
	t.Helper()
	r, err := NewRing(d)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	pts, R := walkPoints(d), max(d.Replicas, 1)
	owned := make(map[[2]int][]int)
	peers := make(map[[2]int][]int)
	for _, pol := range validPollutants {
		for c := range d.Cells {
			k := ShardKey{Pollutant: pol, Cell: c}
			want := walkReplicas(d, pts, R, k)
			if got := r.ReplicasFor(k); !slices.Equal(got, want) || cap(got) != len(got) {
				t.Fatalf("seed %d: ReplicasFor(%v) = %v (room for %d), the walk places %v", seed, k, got, cap(got), want)
			}
			if got := r.OwnerKey(k); got != want[0] {
				t.Fatalf("seed %d: OwnerKey(%v) = %d, the walk places %d", seed, k, got, want[0])
			}
			key := [2]int{want[0], int(pol)}
			owned[key] = append(owned[key], c)
			// An owner streams to its own mirrors, the same for each
			// of its shards.
			peers[key] = want[1:]
		}
	}
	for n := range d.Nodes {
		for _, pol := range validPollutants {
			key := [2]int{n, int(pol)}
			if got := r.OwnedCells(n, pol); !slices.Equal(got, owned[key]) || cap(got) != len(got) {
				t.Fatalf("seed %d: OwnedCells(%d, %v) = %v (room for %d), the walk gives %v", seed, n, pol, got, cap(got), owned[key])
			}
			if got := r.ReplicaPeers(n, pol); !slices.Equal(got, peers[key]) || cap(got) != len(got) {
				t.Fatalf("seed %d: ReplicaPeers(%d, %v) = %v (room for %d), the walk gives %v", seed, n, pol, got, cap(got), peers[key])
			}
		}
	}
}

// TestRingTableMatchesHashWalk checks seeded random ring descriptions
// against the test-side placement; a failure names its seed.
func TestRingTableMatchesHashWalk(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		checkRingAgainstWalk(t, seed, randomDesc(rand.New(rand.NewSource(seed))))
	}
}
