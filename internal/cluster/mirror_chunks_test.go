package cluster_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// TestMirrorHoldsPackedBytes: a mirror fed the fleet's day in 256-tuple
// frames holds its sealed tuples in little more memory than their packed
// runs take. A full chunk is fitted to its size class, so the chunks' memory
// comes to ≤ 22.9 B a tuple (≈ 24 at the parent commit a0ee19b, whose
// ≈ 22.5 KB runs each took a 24 KiB object).
func TestMirrorHoldsPackedBytes(t *testing.T) {
	day, err := sim.Generate(parityFleet(1))
	if err != nil {
		t.Fatal(err)
	}
	day.SortByTime()
	node := newMirrorNode(t, 0, newMirrorEngine, nil)
	for seq := 0; seq < len(day); seq += 256 {
		frame := append([]tuple.Raw(nil), day[seq:min(seq+256, len(day))]...)
		if _, ok := node.HandleMessage(wire.ReplicaIngest{Origin: mirrorOrigin, Pollutant: tuple.CO2, Seq: uint64(seq), Tuples: frame, Incarnation: mirrorInc}).(wire.IngestResponse); !ok {
			t.Fatalf("frame at %d not applied", seq)
		}
	}
	tuples, packed, held := cluster.MirrorChunks(node)
	n := float64(tuples)
	t.Logf("%d of %d tuples sealed: %.2f B a tuple of packed runs in %.2f B of memory", tuples, len(day), float64(packed)/n, float64(held)/n)
	if tuples < len(day)-2048 {
		t.Fatalf("the mirror sealed %d of %d tuples", tuples, len(day))
	}
	if perTuple := float64(held) / n; perTuple > 22.9 {
		t.Errorf("the mirror's chunks take %.2f B a tuple, want ≤ 22.9", perTuple)
	}
}
