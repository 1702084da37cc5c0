package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
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
	put(uint64(cv.Size()))
	put(math.Float64bits(cv.ValueLo))
	put(math.Float64bits(cv.ValueHi))
	d := cv.Features.Dim()
	for j, c := range cv.Centroids {
		put(math.Float64bits(c.X))
		put(math.Float64bits(c.Y))
		for _, b := range cv.Coefs[j*d : (j+1)*d] {
			put(math.Float64bits(b))
		}
		put(math.Float64bits(cv.ApproxErrors[j]))
		put(uint64(cv.N[j]))
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

// TestLausanneCoversMatchParentGolden pins the covers of the end-to-end
// benchmark's own data — 24 one-hour corridor windows, 9 to 64 regions,
// 3 to 21 split rounds — to the digests the brute-force build kernel
// produced (captured at commit 1ccc25b, before the bounded assignment
// step and the scratch-reusing fitter existed), plus one grid and one
// fixed-k cover on such a window, since they share fitRegions and
// kmeans.Run with Ad-KMN.
func TestLausanneCoversMatchParentGolden(t *testing.T) {
	ws := lausanneWindows()
	golden := []struct {
		size, rounds int
		digest       string
	}{
		{22, 8, "9c42682eb3e9407f86ccbeea"},
		{28, 15, "564483ae188adddc6337fb4c"},
		{17, 9, "95d7344de85006484b23e6f9"},
		{15, 10, "4b869ede7a6eda8afb57ce2b"},
		{13, 7, "f3dd3aca0f9c6d628c4de3d5"},
		{16, 11, "87fb96627dc7a759789171e6"},
		{13, 7, "d1fe415fb46b2d704eaa4675"},
		{16, 9, "1672e564abb8a6d933686555"},
		{18, 11, "7ebd5a187df7477b2cbcd80a"},
		{64, 13, "fff376c51796d457c97dc3f3"},
		{64, 6, "291aba495fcc38d5f90cde7c"},
		{64, 6, "03c74f57419f8a000f341258"},
		{64, 6, "5306589293ebd8db88b0cc4f"},
		{64, 5, "9e26b042e752129c6095b784"},
		{64, 6, "db5ced6b0988102626fc20fa"},
		{64, 6, "6e4ac0caa27a3a6f0e044c5c"},
		{64, 8, "49eaa2fff10001866a833912"},
		{57, 12, "50610b9a36e8fea8a4c1729d"},
		{64, 21, "b965bbdc7bf8ef08fc9b38a4"},
		{9, 3, "05000f2877222a18468c5968"},
		{14, 6, "20c94be7107bc0e2a8264e16"},
		{11, 5, "f2aa59c410643dce1c82a1dc"},
		{15, 7, "2b4294b3251913a31e4bec29"},
		{20, 10, "d56d0e785826f04546e27201"},
	}
	if len(ws) != len(golden) {
		t.Fatalf("%d windows, %d goldens", len(ws), len(golden))
	}
	check := func(name string, cv *Cover, err error, size, rounds int, digest string) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := coverDigest(cv); cv.Size() != size || cv.Rounds != rounds || got != digest {
			t.Errorf("%s: size %d rounds %d digest %q, want %d %d %q",
				name, cv.Size(), cv.Rounds, got, size, rounds, digest)
		}
	}
	for c, w := range ws {
		cv, err := BuildCover(w, c, 3600, lausanneConfig)
		check(fmt.Sprintf("adkmn/hour%02d", c), cv, err, golden[c].size, golden[c].rounds, golden[c].digest)
	}
	cv, err := BuildGridCover(ws[8], 8, 3600, 6, lausanneConfig)
	check("grid6/hour08", cv, err, 14, 0, "9fafca078bad4069a59a5aa6")
	cv, err = BuildFixedKCover(ws[8], 8, 3600, 24, lausanneConfig)
	check("fixedk24/hour08", cv, err, 24, 0, "f277fa0889abf21f843845bc")
}

// TestBuildCoverAllocCeiling keeps a build's scratch in its Builder: a
// build that allocates per split round, per region or per k-means run
// costs the 1 000-tuple fixture 966 allocations or more.
func TestBuildCoverAllocCeiling(t *testing.T) {
	w := benchWindow(1000)
	cfg := Config{Cluster: clusterSeed(1)}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := BuildCover(w, 0, 3600, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 150 {
		t.Errorf("BuildCover(1000 tuples) = %.0f allocs, want ≤ 150", allocs)
	}
}

// TestWarmBuilderAllocatesOnlyTheCover: once a Builder has built a window
// of some size, building or refitting another of that size allocates the
// four objects the returned cover is made of — the Cover, its centroids,
// one array holding its coefficients and then its approximation errors,
// and its tuple counts — and nothing per split round, per region or per
// k-means run. This is reuse, not a bound on scratch: arrays sized per
// round or per Lloyd run would pass any byte ceiling a cold build passes.
func TestWarmBuilderAllocatesOnlyTheCover(t *testing.T) {
	ws := lausanneWindows()
	w, next := ws[12], ws[13][:len(ws[12])]
	if len(ws[13]) < len(ws[12]) {
		w, next = ws[13], ws[12][:len(ws[13])]
	}
	var b Builder
	if _, err := b.BuildCover(w, 12, 3600, lausanneConfig); err != nil {
		t.Fatal(err)
	}
	var cv *Cover
	allocs := testing.AllocsPerRun(5, func() {
		var err error
		if cv, err = b.BuildCover(next, 13, 3600, lausanneConfig); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 4 {
		t.Errorf("second build on a warm Builder = %.0f allocs, want the cover's 4", allocs)
	}
	if allocs := testing.AllocsPerRun(5, func() {
		if _, err := b.Refit(next, 13, 3600, lausanneConfig, cv.Centroids, cv.Rounds); err != nil {
			t.Fatal(err)
		}
	}); allocs != 4 {
		t.Errorf("a refit on a warm Builder = %.0f allocs, want the cover's 4", allocs)
	}
	// The cover must not share memory with the scratch it came from.
	before := coverDigest(cv)
	if _, err := b.BuildCover(w, 12, 3600, lausanneConfig); err != nil {
		t.Fatal(err)
	}
	if after := coverDigest(cv); after != before {
		t.Errorf("a later build on the same Builder changed a returned cover: digest %s → %s", before, after)
	}
}

// TestCoverRetainedBytesPerRegion keeps 240 covers of the benchmark
// fleet's windows — the 24 hours built 10 times — and holds what they
// retain on the heap to 72 bytes a region. A region's numbers are 64 bytes
// at linear-xyt's 4 coefficients (centroid 16, coefficients 32, error 8,
// count 4, plus the Cover's own share); a cover of one struct and one
// model per region retained 151.
func TestCoverRetainedBytesPerRegion(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's bookkeeping inflates the heap")
	}
	ws := lausanneWindows()
	const copies = 10
	covers := make([]*Cover, 0, copies*len(ws))
	regions := 0
	heap := func() int64 {
		// Two collections: the first leaves the pooled Builders in the
		// pool's victim cache, the second frees them.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	for range copies {
		for c, w := range ws {
			cv, err := BuildCover(w, c, 3600, lausanneConfig)
			if err != nil {
				t.Fatal(err)
			}
			covers = append(covers, cv)
			regions += cv.Size()
		}
	}
	retained := heap() - before
	runtime.KeepAlive(covers)
	perRegion := float64(retained) / float64(regions)
	t.Logf("%d covers, %d regions: %d bytes retained, %.1f a region", len(covers), regions, retained, perRegion)
	if perRegion > 72 {
		t.Errorf("covers retain %.1f bytes a region, want ≤ 72", perRegion)
	}
}

// TestConcurrentBuildsMatchSequential builds the same windows from several
// goroutines at once, all borrowing Builders from the pool, and compares
// with one-at-a-time builds. Under -race a Builder reaching two goroutines
// is a detector failure; without it, a wrong digest.
func TestConcurrentBuildsMatchSequential(t *testing.T) {
	ws := lausanneWindows()[6:12]
	want := make([]string, len(ws))
	for c, w := range ws {
		cv, err := BuildCover(w, c, 3600, lausanneConfig)
		if err != nil {
			t.Fatal(err)
		}
		want[c] = coverDigest(cv)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ws {
				c := (i + g) % len(ws)
				cv, err := BuildCover(ws[c], c, 3600, lausanneConfig)
				if err != nil {
					t.Error(err)
					return
				}
				if got := coverDigest(cv); got != want[c] {
					t.Errorf("goroutine %d, window %d: digest %s, sequential %s", g, c, got, want[c])
				}
			}
		}()
	}
	wg.Wait()
}
