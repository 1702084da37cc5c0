package cluster

// Property tests for replica placement (each owner's shards on its R-1
// live ID successors): determinism across independently-built rings, the
// distinct-owner-first shape, the growth invariant (a join moves shards
// only onto the joiner and changes at most R-1 existing mirror sets),
// and peer-set consistency.

import (
	"slices"
	"testing"

	"repro/internal/tuple"
)

var allPollutants = []tuple.Pollutant{tuple.CO2, tuple.CO, tuple.PM}

func replicatedDesc(nodes, replicas int) Desc {
	d := testDesc(nodes)
	d.Replicas = replicas
	return d
}

func TestReplicasValidation(t *testing.T) {
	if _, err := NewRing(replicatedDesc(3, -1)); err == nil {
		t.Error("negative replicas accepted")
	}
	if _, err := NewRing(replicatedDesc(3, 4)); err == nil {
		t.Error("more replicas than nodes accepted")
	}
	for _, r := range []int{0, 1} {
		ring, err := NewRing(replicatedDesc(3, r))
		if err != nil {
			t.Fatalf("replicas=%d rejected: %v", r, err)
		}
		if ring.Replicas() != 1 {
			t.Errorf("replicas=%d normalized to %d, want 1", r, ring.Replicas())
		}
	}
}

func TestReplicasForShape(t *testing.T) {
	ring, err := NewRing(replicatedDesc(4, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range allPollutants {
		for c := 0; c < ring.Cells(); c++ {
			k := ShardKey{Pollutant: pol, Cell: c}
			reps := ring.ReplicasFor(k)
			if len(reps) != 3 {
				t.Fatalf("shard %v: %d replicas, want 3", k, len(reps))
			}
			if reps[0] != ring.OwnerKey(k) {
				t.Fatalf("shard %v: first replica %d is not the owner %d", k, reps[0], ring.OwnerKey(k))
			}
			seen := make(map[int]bool)
			for _, n := range reps {
				if n < 0 || n >= ring.Nodes() {
					t.Fatalf("shard %v: replica %d outside ring", k, n)
				}
				if seen[n] {
					t.Fatalf("shard %v: duplicate replica %d in %v", k, n, reps)
				}
				seen[n] = true
			}
		}
	}
}

func TestReplicasForDeterministicAcrossParties(t *testing.T) {
	a, err := NewRing(replicatedDesc(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RingFromWire(a.Wire())
	if err != nil {
		t.Fatal(err)
	}
	if b.Replicas() != 2 {
		t.Fatalf("replication factor lost over the wire: %d", b.Replicas())
	}
	for _, pol := range allPollutants {
		for c := 0; c < a.Cells(); c++ {
			k := ShardKey{Pollutant: pol, Cell: c}
			ra, rb := a.ReplicasFor(k), b.ReplicasFor(k)
			if len(ra) != len(rb) {
				t.Fatalf("shard %v: replica sets diverge: %v vs %v", k, ra, rb)
			}
			for i := range ra {
				if ra[i] != rb[i] {
					t.Fatalf("shard %v: replica sets diverge: %v vs %v", k, ra, rb)
				}
			}
		}
	}
}

// mirrorSet returns node n's mirrors as r streams to them: its replica
// peers for the first pollutant it owns a shard of (the same for every
// such pollutant), or nil when it owns nothing.
func mirrorSet(r *Ring, n int) []int {
	for _, pol := range allPollutants {
		if len(r.OwnedCells(n, pol)) > 0 {
			return r.ReplicaPeers(n, pol)
		}
	}
	return nil
}

// TestReplicasForGrowthInvariant pins what a join moves under per-node
// mirror sets: shards move only onto the joiner, and the mirror sets of
// at most R-1 existing nodes change — those whose next R-1 live IDs now
// wrap through the joiner's slot. A changed set takes the joiner in and
// keeps its surviving members in their order (dropping the joiner leaves
// a prefix of the old set).
func TestReplicasForGrowthInvariant(t *testing.T) {
	const R = 3
	small, err := NewRing(replicatedDesc(4, R))
	if err != nil {
		t.Fatal(err)
	}
	big, err := NewRing(replicatedDesc(5, R))
	if err != nil {
		t.Fatal(err)
	}
	const newNode = 4
	moved := 0
	for _, pol := range allPollutants {
		for c := 0; c < small.Cells(); c++ {
			k := ShardKey{Pollutant: pol, Cell: c}
			was, is := small.OwnerKey(k), big.OwnerKey(k)
			if was != is {
				moved++
				if is != newNode {
					t.Fatalf("shard %v moved %d -> %d, but only the joiner %d may gain shards", k, was, is, newNode)
				}
			}
		}
	}
	if moved == 0 {
		t.Error("no shard moved onto the new node (suspicious placement)")
	}
	changed := 0
	for n := 0; n < small.Nodes(); n++ {
		oldSet, newSet := mirrorSet(small, n), mirrorSet(big, n)
		if len(oldSet) != R-1 || len(newSet) != R-1 {
			t.Fatalf("node %d: mirror sets %v -> %v, want %d each", n, oldSet, newSet, R-1)
		}
		if slices.Equal(oldSet, newSet) {
			continue
		}
		changed++
		if !slices.Contains(newSet, newNode) {
			t.Fatalf("node %d: mirror set %v -> %v changed without taking the joiner in", n, oldSet, newSet)
		}
		survivors := slices.DeleteFunc(slices.Clone(newSet), func(m int) bool { return m == newNode })
		if !slices.Equal(survivors, oldSet[:len(survivors)]) {
			t.Fatalf("node %d: growth reordered mirrors: old %v, new %v", n, oldSet, newSet)
		}
	}
	if changed == 0 || changed > R-1 {
		t.Fatalf("a join changed %d existing nodes' mirror sets, want 1..%d", changed, R-1)
	}
}

func TestReplicaPeersConsistent(t *testing.T) {
	ring, err := NewRing(replicatedDesc(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range allPollutants {
		for n := 0; n < ring.Nodes(); n++ {
			peers := make(map[int]bool)
			for _, p := range ring.ReplicaPeers(n, pol) {
				if p == n {
					t.Fatalf("node %d is its own replica peer", n)
				}
				peers[p] = true
			}
			// Every non-owner replica of every shard n owns must be a peer,
			// and every peer must back at least one such shard.
			backed := make(map[int]bool)
			for c := 0; c < ring.Cells(); c++ {
				k := ShardKey{Pollutant: pol, Cell: c}
				reps := ring.ReplicasFor(k)
				if reps[0] != n {
					continue
				}
				for _, p := range reps[1:] {
					backed[p] = true
					if !peers[p] {
						t.Fatalf("node %d shard %v replica %d missing from ReplicaPeers %v", n, k, p, ring.ReplicaPeers(n, pol))
					}
				}
			}
			for p := range peers {
				if !backed[p] {
					t.Fatalf("node %d peer %d backs no owned shard", n, p)
				}
			}
		}
	}
	// Unreplicated rings have no peers.
	solo, err := NewRing(replicatedDesc(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	if peers := solo.ReplicaPeers(0, tuple.CO2); len(peers) != 0 {
		t.Fatalf("unreplicated ring has peers %v", peers)
	}
}
