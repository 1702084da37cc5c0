package rtree

import (
	"math/rand"
	"testing"

	"repro/internal/geo"
)

func benchTree(b *testing.B, n int) (*Tree, []geo.Point) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	pts := make([]geo.Point, n)
	items := make([]Item, n)
	for i := range pts {
		pts[i] = geo.Point{X: rng.Float64() * 10000, Y: rng.Float64() * 10000}
		items[i] = Item(i)
	}
	t, err := Bulk(pts, items, DefaultMaxEntries)
	if err != nil {
		b.Fatal(err)
	}
	queries := make([]geo.Point, 1024)
	for i := range queries {
		queries[i] = geo.Point{X: rng.Float64() * 10000, Y: rng.Float64() * 10000}
	}
	return t, queries
}

func BenchmarkSearchRadius5000(b *testing.B) {
	t, qs := benchTree(b, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		t.SearchRadius(qs[i%len(qs)], 1000, func(geo.Point, Item) bool {
			count++
			return true
		})
	}
}

func BenchmarkBulkLoad5000(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	pts := make([]geo.Point, 5000)
	items := make([]Item, 5000)
	for i := range pts {
		pts[i] = geo.Point{X: rng.Float64() * 10000, Y: rng.Float64() * 10000}
		items[i] = Item(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Bulk(pts, items, DefaultMaxEntries); err != nil {
			b.Fatal(err)
		}
	}
}
