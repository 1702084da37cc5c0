package vptree

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

func seqItems(n int) []Item {
	items := make([]Item, n)
	for i := range items {
		items[i] = Item(i)
	}
	return items
}

func buildTree(t *testing.T, pts []geo.Point) *Tree {
	t.Helper()
	tr, err := Build(pts, seqItems(len(pts)))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// depth is the height of the subtree at n (0 for nil).
func depth(n *node) int {
	if n == nil {
		return 0
	}
	return 1 + max(depth(n.inside), depth(n.outside))
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build([]geo.Point{{X: 1}}, nil); err == nil {
		t.Error("expected length-mismatch error")
	}
	tr, err := Build(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 0 || depth(tr.root) != 0 {
		t.Errorf("empty tree Len=%d depth=%d", tr.Len(), depth(tr.root))
	}
	tr.SearchRadius(geo.Point{}, 100, func(geo.Point, Item) bool {
		t.Error("empty tree must not visit")
		return true
	})
}

func TestSinglePoint(t *testing.T) {
	tr := buildTree(t, []geo.Point{{X: 5, Y: 5}})
	if tr.Len() != 1 || depth(tr.root) != 1 {
		t.Errorf("Len=%d depth=%d", tr.Len(), depth(tr.root))
	}
	found := 0
	tr.SearchRadius(geo.Point{X: 5, Y: 5}, 0, func(p geo.Point, it Item) bool {
		found++
		return true
	})
	if found != 1 {
		t.Errorf("found %d, want 1", found)
	}
}

func TestSearchRadiusMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := randomPoints(rng, 3000)
	tr := buildTree(t, pts)
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 60; trial++ {
		center := geo.Point{X: rng.Float64() * 10000, Y: rng.Float64() * 10000}
		radius := rng.Float64() * 2500
		want := map[Item]bool{}
		r2 := radius * radius
		for i, p := range pts {
			if p.Dist2(center) <= r2 {
				want[Item(i)] = true
			}
		}
		got := map[Item]bool{}
		tr.SearchRadius(center, radius, func(p geo.Point, it Item) bool {
			got[it] = true
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d, want %d", trial, len(got), len(want))
		}
		for it := range want {
			if !got[it] {
				t.Fatalf("trial %d: missing %d", trial, it)
			}
		}
	}
}

func TestSearchEarlyStop(t *testing.T) {
	pts := randomPoints(rand.New(rand.NewSource(2)), 200)
	tr := buildTree(t, pts)
	count := 0
	tr.SearchRadius(geo.Point{X: 5000, Y: 5000}, 1e9, func(p geo.Point, it Item) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("visited %d, want 5", count)
	}
}

func TestDuplicatePoints(t *testing.T) {
	p := geo.Point{X: 3, Y: 3}
	pts := make([]geo.Point, 40)
	for i := range pts {
		pts[i] = p
	}
	tr := buildTree(t, pts)
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	count := 0
	tr.SearchRadius(p, 0, func(q geo.Point, it Item) bool {
		count++
		return true
	})
	if count != 40 {
		t.Errorf("found %d duplicates, want 40", count)
	}
}

func TestDepthIsLogarithmicOnRandomData(t *testing.T) {
	pts := randomPoints(rand.New(rand.NewSource(5)), 4096)
	tr := buildTree(t, pts)
	// Median splits give depth ~log2(n)=12; allow slack for duplicates on
	// the boundary.
	if d := depth(tr.root); d < 12 || d > 30 {
		t.Errorf("depth = %d, want ~12..30", d)
	}
}

func TestInvariantsQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pts := randomPoints(rng, 1+rng.Intn(400))
		tr, err := Build(pts, seqItems(len(pts)))
		if err != nil {
			return false
		}
		return tr.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestRadiusZeroFindsExactPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pts := randomPoints(rng, 500)
	tr := buildTree(t, pts)
	for trial := 0; trial < 20; trial++ {
		i := rng.Intn(len(pts))
		found := false
		tr.SearchRadius(pts[i], 0, func(p geo.Point, it Item) bool {
			if it == Item(i) {
				found = true
				return false
			}
			return true
		})
		if !found {
			t.Fatalf("exact point %d not found at radius 0", i)
		}
	}
}

func TestNegativeRadiusFindsNothing(t *testing.T) {
	tr := buildTree(t, randomPoints(rand.New(rand.NewSource(7)), 50))
	tr.SearchRadius(geo.Point{}, -1, func(geo.Point, Item) bool {
		t.Error("negative radius must not visit")
		return true
	})
}
