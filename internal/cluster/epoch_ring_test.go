package cluster

// Property tests for epoch-versioned membership transitions: epochs
// are strictly monotonic across any transition chain and survive the
// wire; a join moves shards only ONTO the new node; a drain/promotion
// tombstone moves only the removed node's shards, each to its hash
// successor among the survivors, whose pull sources name every mirror
// of the removed node; replica sets on transitioned rings stay
// distinct, owner-first, and free of tombstoned members.

import (
	"slices"
	"sort"
	"testing"
)

// advance applies one transition to a ring and returns the next ring.
func advance(t *testing.T, r *Ring, d Desc, err error) *Ring {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	next, err := NewRing(d)
	if err != nil {
		t.Fatal(err)
	}
	return next
}

func TestEpochStrictMonotonicity(t *testing.T) {
	ring, err := NewRing(replicatedDesc(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if ring.Epoch() != 0 {
		t.Fatalf("fresh ring at epoch %d, want 0", ring.Epoch())
	}
	// Any interleaving of joins and tombstones bumps the epoch by
	// exactly one per transition, with no resets.
	prev := ring
	for i, step := range []string{"join", "tombstone", "join", "tombstone", "join"} {
		var next *Ring
		switch step {
		case "join":
			d, err := prev.JoinDesc(string(rune('a'+i)) + ":1")
			next = advance(t, prev, d, err)
		case "tombstone":
			// Remove the newest live node so earlier slots stay stable.
			victim := -1
			for n := prev.Nodes() - 1; n >= 0; n-- {
				if prev.IsLive(n) {
					victim = n
					break
				}
			}
			d, err := prev.TombstoneDesc(victim)
			next = advance(t, prev, d, err)
		}
		if next.Epoch() != prev.Epoch()+1 {
			t.Fatalf("step %d (%s): epoch %d after %d, want +1", i, step, next.Epoch(), prev.Epoch())
		}
		// The epoch must survive the wire exchange both peers and
		// clients rebuild rings from.
		back, err := RingFromWire(next.Wire())
		if err != nil {
			t.Fatal(err)
		}
		if back.Epoch() != next.Epoch() {
			t.Fatalf("step %d: epoch %d lost over the wire (got %d)", i, next.Epoch(), back.Epoch())
		}
		prev = next
	}
}

func TestJoinMovesShardsOnlyOntoJoiner(t *testing.T) {
	old, err := NewRing(replicatedDesc(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	d, err := old.JoinDesc("joiner:1")
	next := advance(t, old, d, err)
	joiner := next.Nodes() - 1
	if next.Addr(joiner) != "joiner:1" || !next.IsLive(joiner) {
		t.Fatalf("joiner not last live member: addr %q live %v", next.Addr(joiner), next.IsLive(joiner))
	}
	moved := 0
	for _, pol := range allPollutants {
		for c := 0; c < old.Cells(); c++ {
			k := ShardKey{Pollutant: pol, Cell: c}
			was, is := old.OwnerKey(k), next.OwnerKey(k)
			if was != is {
				moved++
				if is != joiner {
					t.Fatalf("shard %v moved %d -> %d, but only the joiner %d may gain shards", k, was, is, joiner)
				}
			}
		}
	}
	if moved == 0 {
		t.Error("join moved no shards onto the new node (suspicious placement)")
	}
}

func TestDrainMovesOnlyDrainedShards(t *testing.T) {
	old, err := NewRing(replicatedDesc(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	const drained = 1
	d, err := old.TombstoneDesc(drained)
	next := advance(t, old, d, err)
	if next.IsLive(drained) {
		t.Fatal("drained node still live")
	}
	if next.Live() != old.Live()-1 || next.Nodes() != old.Nodes() {
		t.Fatalf("live %d->%d nodes %d->%d; a tombstone keeps the slot", old.Live(), next.Live(), old.Nodes(), next.Nodes())
	}
	pts := walkPoints(old.Desc())
	for _, pol := range allPollutants {
		for c := 0; c < old.Cells(); c++ {
			k := ShardKey{Pollutant: pol, Cell: c}
			was, is := old.OwnerKey(k), next.OwnerKey(k)
			if was == drained {
				if is == drained {
					t.Fatalf("shard %v still owned by the drained node", k)
				}
				// The shard falls to its hash successor among the
				// survivors: the first virtual node clockwise of its key
				// that is not the drained node's.
				h := keyHash(k)
				i := sort.Search(len(pts), func(i int) bool { return pts[i].hash >= h })
				for pts[i%len(pts)].node == drained {
					i++
				}
				if want := pts[i%len(pts)].node; is != want {
					t.Fatalf("shard %v fell to %d, want its surviving hash successor %d", k, is, want)
				}
				// That node need not mirror the drained node; it pulls
				// the stream through pullStream's source chain, the
				// origin and then old.ReplicaPeers(origin), which must
				// name every mirror of the drained node.
				sources := append([]int{drained}, old.ReplicaPeers(drained, pol)...)
				for _, m := range old.ReplicasFor(k)[1:] {
					if !slices.Contains(sources, m) {
						t.Fatalf("shard %v: gaining node %d pulls from %v, which misses mirror %d", k, is, sources, m)
					}
				}
			} else if was != is {
				t.Fatalf("shard %v moved %d -> %d though neither is the drained node %d", k, was, is, drained)
			}
		}
	}
}

func TestTombstonedReplicaSetsDistinctOwnerFirst(t *testing.T) {
	old, err := NewRing(replicatedDesc(5, 3))
	if err != nil {
		t.Fatal(err)
	}
	const dead = 2
	d, err := old.TombstoneDesc(dead)
	next := advance(t, old, d, err)
	for _, pol := range allPollutants {
		for c := 0; c < next.Cells(); c++ {
			k := ShardKey{Pollutant: pol, Cell: c}
			reps := next.ReplicasFor(k)
			if len(reps) != next.Replicas() {
				t.Fatalf("shard %v: %d replicas, want %d", k, len(reps), next.Replicas())
			}
			if reps[0] != next.OwnerKey(k) {
				t.Fatalf("shard %v: first replica %d is not the owner %d", k, reps[0], next.OwnerKey(k))
			}
			seen := make(map[int]bool)
			for _, n := range reps {
				if n == dead {
					t.Fatalf("shard %v: tombstoned node %d still in replica set %v", k, dead, reps)
				}
				if !next.IsLive(n) || seen[n] {
					t.Fatalf("shard %v: replica set %v not distinct live members", k, reps)
				}
				seen[n] = true
			}
		}
	}
}

func TestTombstoneClampsReplicas(t *testing.T) {
	// 3 live nodes at R=3: removing one leaves 2, so R must clamp to 2
	// instead of making every NewRing fail.
	old, err := NewRing(replicatedDesc(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	d, err := old.TombstoneDesc(0)
	next := advance(t, old, d, err)
	if next.Replicas() != 2 {
		t.Fatalf("replicas %d after removing one of three, want clamp to 2", next.Replicas())
	}
	// Draining down to a single live node is allowed (R clamps to 1);
	// removing the last one is not.
	d2, err := next.TombstoneDesc(1)
	last := advance(t, next, d2, err)
	if last.Replicas() != 1 || last.Live() != 1 {
		t.Fatalf("live %d replicas %d, want 1/1", last.Live(), last.Replicas())
	}
	if _, err := last.TombstoneDesc(2); err == nil {
		t.Fatal("removing the last live node accepted")
	}
}

func TestJoinDescValidation(t *testing.T) {
	ring, err := NewRing(testDesc(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ring.JoinDesc(""); err == nil {
		t.Error("empty join address accepted")
	}
	if _, err := ring.JoinDesc(ring.Addr(1)); err == nil {
		t.Error("duplicate join address accepted")
	}
	// Rejoining after a drain uses a fresh slot, not the tombstoned one:
	// placement hashes node indexes, so resurrecting an ID would
	// silently re-home shards.
	d, err := ring.TombstoneDesc(2)
	next := advance(t, ring, d, err)
	d2, err := next.JoinDesc(ring.Addr(2))
	back := advance(t, next, d2, err)
	if back.Nodes() != 4 || back.Addr(3) != ring.Addr(2) || back.IsLive(2) {
		t.Fatalf("rejoin reused the tombstoned slot: nodes %d, slot2 live %v", back.Nodes(), back.IsLive(2))
	}
	for _, pol := range allPollutants {
		for c := 0; c < next.Cells(); c++ {
			k := ShardKey{Pollutant: pol, Cell: c}
			if was, is := next.OwnerKey(k), back.OwnerKey(k); was != is && is != 3 {
				t.Fatalf("rejoin moved shard %v %d -> %d (only slot 3 may gain)", k, was, is)
			}
		}
	}
}
