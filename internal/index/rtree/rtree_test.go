package rtree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geo"
)

func randomPoints(rng *rand.Rand, n int) []geo.Point {
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Point{X: rng.Float64() * 10000, Y: rng.Float64() * 10000}
	}
	return pts
}

// bruteRadius returns the item set within radius of center, by brute force.
func bruteRadius(pts []geo.Point, center geo.Point, radius float64) map[Item]bool {
	out := map[Item]bool{}
	r2 := radius * radius
	for i, p := range pts {
		if p.Dist2(center) <= r2 {
			out[Item(i)] = true
		}
	}
	return out
}

// bulk builds a tree over pts with item i for pts[i].
func bulk(t testing.TB, pts []geo.Point, maxEntries int) *Tree {
	t.Helper()
	items := make([]Item, len(pts))
	for i := range items {
		items[i] = Item(i)
	}
	tr, err := Bulk(pts, items, maxEntries)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestBulkMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := randomPoints(rng, 3000)
	items := make([]Item, len(pts))
	for i := range items {
		items[i] = Item(i)
	}
	tr, err := Bulk(pts, items, DefaultMaxEntries)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != len(pts) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(pts))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		center := geo.Point{X: rng.Float64() * 10000, Y: rng.Float64() * 10000}
		radius := 100 + rng.Float64()*3000
		want := bruteRadius(pts, center, radius)
		got := map[Item]bool{}
		tr.SearchRadius(center, radius, func(p geo.Point, it Item) bool {
			got[it] = true
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d items, want %d", trial, len(got), len(want))
		}
	}
}

// TestNewValidation checks fan-out validation, which New did before it
// was folded into Bulk: below 4 is rejected, 4 and up build.
func TestNewValidation(t *testing.T) {
	pts := []geo.Point{{X: 1}, {X: 2}, {X: 3}, {X: 4}, {X: 5}}
	items := []Item{0, 1, 2, 3, 4}
	for _, m := range []int{-1, 0, 3} {
		if _, err := Bulk(pts, items, m); err == nil {
			t.Errorf("maxEntries %d: expected error for maxEntries < 4", m)
		}
	}
	for _, m := range []int{4, 8} {
		tr, err := Bulk(pts, items, m)
		if err != nil {
			t.Fatalf("maxEntries %d: %v", m, err)
		}
		if tr.Len() != len(pts) {
			t.Errorf("maxEntries %d: Len = %d", m, tr.Len())
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Errorf("maxEntries %d: %v", m, err)
		}
	}
}

func TestBulkErrorsAndEmpty(t *testing.T) {
	if _, err := Bulk([]geo.Point{{X: 1}}, nil, 8); err == nil {
		t.Error("expected length-mismatch error")
	}
	tr, err := Bulk(nil, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 0 {
		t.Errorf("empty bulk Len = %d", tr.Len())
	}
	tr.SearchRadius(geo.Point{}, 100, func(geo.Point, Item) bool {
		t.Error("empty tree must not visit")
		return true
	})
}

func TestSearchEarlyStop(t *testing.T) {
	pts := make([]geo.Point, 100)
	for i := range pts {
		pts[i] = geo.Point{X: float64(i % 10), Y: float64(i / 10)}
	}
	tr := bulk(t, pts, 4)
	count := 0
	tr.SearchRadius(geo.Point{X: 5, Y: 5}, 100, func(p geo.Point, it Item) bool {
		count++
		return count < 7
	})
	if count != 7 {
		t.Errorf("early stop visited %d, want 7", count)
	}
}

func TestDuplicatePoints(t *testing.T) {
	p := geo.Point{X: 5, Y: 5}
	pts := make([]geo.Point, 50)
	for i := range pts {
		pts[i] = p
	}
	tr := bulk(t, pts, 4)
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	got := map[Item]bool{}
	tr.SearchRadius(p, 0, func(q geo.Point, it Item) bool {
		got[it] = true
		return true
	})
	if len(got) != len(pts) {
		t.Errorf("found %d distinct duplicates, want %d", len(got), len(pts))
	}
}

// TestInvariantsQuick packs random point sets at random fan-outs and
// checks the structure and every answer of a random radius search
// against brute force.
func TestInvariantsQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pts := randomPoints(rng, rng.Intn(500))
		tr := bulk(t, pts, 4+rng.Intn(29))
		if tr.CheckInvariants() != nil {
			return false
		}
		center := geo.Point{X: rng.Float64() * 10000, Y: rng.Float64() * 10000}
		radius := rng.Float64() * 3000
		want := bruteRadius(pts, center, radius)
		got := map[Item]bool{}
		tr.SearchRadius(center, radius, func(p geo.Point, it Item) bool {
			got[it] = true
			return true
		})
		if len(got) != len(want) {
			return false
		}
		for it := range want {
			if !got[it] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestDepthGrowsLogarithmically checks STR's near-full packing: every
// level holds ceil(n/M) nodes of the level below, so the height is the
// least that fan-out M allows.
func TestDepthGrowsLogarithmically(t *testing.T) {
	const n, fanout = 5000, 8
	tr := bulk(t, randomPoints(rand.New(rand.NewSource(6)), n), fanout)
	got := 1
	for nd := tr.root; !nd.leaf; nd = nd.children[0] {
		got++
	}
	want := 1
	for nodes := (n + fanout - 1) / fanout; nodes > 1; nodes = (nodes + fanout - 1) / fanout {
		want++
	}
	if got != want {
		t.Errorf("depth = %d for %d points at fan-out %d, want %d", got, n, fanout, want)
	}
}
