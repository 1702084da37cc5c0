package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
)

// coverDigest hashes every number a cover build decides — rounds, region
// count, and per region the centroid, the coefficients, ApproxError and
// N, all as exact bit patterns — so two covers share a digest only when
// they are deep-equal.
func coverDigest(cv *Cover) string {
	h := sha256.New()
	put := func(u uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	put(uint64(cv.Rounds))
	put(uint64(len(cv.Regions)))
	put(math.Float64bits(cv.ValueLo))
	put(math.Float64bits(cv.ValueHi))
	for _, r := range cv.Regions {
		put(math.Float64bits(r.Centroid.X))
		put(math.Float64bits(r.Centroid.Y))
		for _, c := range r.Model.Coef() {
			put(math.Float64bits(c))
		}
		put(math.Float64bits(r.ApproxError))
		put(uint64(r.N))
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// TestCoversMatchParentGolden pins the seeded fixtures' covers to the
// values the gather-by-append fitRegions produced (captured at commit
// 2e7833c): the one-array gather must hand every region the same
// observations in the same order, so the floating-point sums — and with
// them every centroid, coefficient and error — stay bit-identical.
func TestCoversMatchParentGolden(t *testing.T) {
	bumpy := bumpyWindow(rand.New(rand.NewSource(16)), 1000)
	twoZone := twoZoneWindow(rand.New(rand.NewSource(13)), 300)
	cases := []struct {
		name   string
		build  func() (*Cover, error)
		size   int
		rounds int
		digest string
	}{
		{"adkmn/bench1000", func() (*Cover, error) {
			return BuildCover(benchWindow(1000), 0, 3600, Config{Cluster: clusterSeed(1)})
		}, 64, 5, "d7c3110b3e9a24b8e186fca9"},
		{"adkmn/bumpy1000", func() (*Cover, error) {
			return BuildCover(bumpy, 0, 1000, Config{MaxK: 16, Cluster: clusterSeed(17)})
		}, 16, 8, "56a01296b1146c4162414504"},
		{"adkmn/twozone300", func() (*Cover, error) {
			return BuildCover(twoZone, 0, 1000, Config{Cluster: clusterSeed(2)})
		}, 2, 0, "2bb3752fa9bbcab0942209e6"},
		{"grid4/twozone300", func() (*Cover, error) {
			return BuildGridCover(twoZone, 0, 1000, 4, Config{Cluster: clusterSeed(14)})
		}, 2, 0, "37868f4f72e64c6d5bc1753d"},
		{"grid6/bumpy1000", func() (*Cover, error) {
			return BuildGridCover(bumpy, 0, 1000, 6, Config{Cluster: clusterSeed(17)})
		}, 36, 0, "c2d87e57a9b1780c843a3121"},
		{"fixedk8/bumpy1000", func() (*Cover, error) {
			return BuildFixedKCover(bumpy, 0, 1000, 8, Config{Cluster: clusterSeed(17)})
		}, 8, 0, "8813602db7c0f7c9eeeace4e"},
	}
	for _, tc := range cases {
		cv, err := tc.build()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := coverDigest(cv); cv.Size() != tc.size || cv.Rounds != tc.rounds || got != tc.digest {
			t.Errorf("%s: size %d rounds %d digest %q, want %d %d %q",
				tc.name, cv.Size(), cv.Rounds, got, tc.size, tc.rounds, tc.digest)
		}
	}
}

// TestBuildCoverAllocCeiling keeps the region gather at one backing
// array per build: the 1 000-tuple fixture cost 4 141 allocations when
// every region regrew four slices per split round.
func TestBuildCoverAllocCeiling(t *testing.T) {
	w := benchWindow(1000)
	cfg := Config{Cluster: clusterSeed(1)}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := BuildCover(w, 0, 3600, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1500 {
		t.Errorf("BuildCover(1000 tuples) = %.0f allocs, want ≤ 1500", allocs)
	}
}
