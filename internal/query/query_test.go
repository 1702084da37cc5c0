package query

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/kmeans"
	"repro/internal/tuple"
)

// gridWindow lays tuples on a regular grid with a linear value surface.
// Timestamps are decorrelated from position (as with multiple buses
// sampling independently); a time axis that is an exact linear function of
// position would make the regression design rank deficient.
func gridWindow(n int, spacing float64) tuple.Batch {
	var w tuple.Batch
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			x, y := float64(i)*spacing, float64(j)*spacing
			t := float64((i*37 + j*61) % 97)
			w = append(w, tuple.Raw{T: t, X: x, Y: y, S: 400 + 0.1*x + 0.05*y})
		}
	}
	return w
}

func TestNewProcessorValidation(t *testing.T) {
	w := gridWindow(3, 100)
	if _, err := NewNaive(w, 0); err == nil {
		t.Error("naive: expected radius error")
	}
	if _, err := NewRTree(w, -1); err == nil {
		t.Error("r-tree: expected radius error")
	}
	if _, err := NewVPTree(w, 0); err == nil {
		t.Error("vp-tree: expected radius error")
	}
	if _, err := NewCover(nil); err == nil {
		t.Error("cover: expected nil error")
	}
}

func TestAverageMethodsAgree(t *testing.T) {
	// Naive, R-tree, and VP-tree implement identical semantics, so they
	// must return identical values — the reason the paper's accuracy plot
	// omits the index methods ("they produce the same result as the
	// naive method").
	rng := rand.New(rand.NewSource(1))
	w := make(tuple.Batch, 3000)
	for i := range w {
		w[i] = tuple.Raw{
			T: rng.Float64() * 1000,
			X: rng.Float64() * 8000,
			Y: rng.Float64() * 8000,
			S: 400 + rng.Float64()*500,
		}
	}
	naive, err := NewNaive(w, 1000)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRTree(w, 1000)
	if err != nil {
		t.Fatal(err)
	}
	vp, err := NewVPTree(w, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 100; trial++ {
		q := Q{T: rng.Float64() * 1000, X: rng.Float64() * 8000, Y: rng.Float64() * 8000}
		vn, en := naive.Interpolate(q)
		vr, er := rt.Interpolate(q)
		vv, ev := vp.Interpolate(q)
		if (en == nil) != (er == nil) || (en == nil) != (ev == nil) {
			t.Fatalf("trial %d: error disagreement: %v %v %v", trial, en, er, ev)
		}
		if en != nil {
			continue
		}
		if math.Abs(vn-vr) > 1e-9 || math.Abs(vn-vv) > 1e-9 {
			t.Fatalf("trial %d: values disagree: naive=%v rtree=%v vptree=%v", trial, vn, vr, vv)
		}
	}
}

func TestNaiveAveragesWithinRadius(t *testing.T) {
	w := tuple.Batch{
		{X: 0, Y: 0, S: 100},
		{X: 50, Y: 0, S: 200},
		{X: 5000, Y: 0, S: 999},
	}
	n, err := NewNaive(w, 100)
	if err != nil {
		t.Fatal(err)
	}
	v, err := n.Interpolate(Q{X: 10, Y: 0})
	if err != nil {
		t.Fatal(err)
	}
	if v != 150 {
		t.Errorf("Interpolate = %v, want 150", v)
	}
}

func TestNoDataError(t *testing.T) {
	w := tuple.Batch{{X: 0, Y: 0, S: 100}}
	for _, mk := range []func() (Processor, error){
		func() (Processor, error) { return NewNaive(w, 10) },
		func() (Processor, error) { return NewRTree(w, 10) },
		func() (Processor, error) { return NewVPTree(w, 10) },
	} {
		p, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Interpolate(Q{X: 9999, Y: 9999}); !errors.Is(err, ErrNoData) {
			t.Errorf("%s: want ErrNoData, got %v", p.Name(), err)
		}
	}
}

func TestCoverProcessor(t *testing.T) {
	w := gridWindow(20, 100)
	cv, err := core.BuildCover(w, 0, 1e6, core.Config{Cluster: kmeans.Config{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewCover(cv)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "ad-kmn" {
		t.Errorf("Name = %q", p.Name())
	}
	// The data is globally linear, so the cover must be near exact.
	v, err := p.Interpolate(Q{T: 200, X: 950, Y: 950})
	if err != nil {
		t.Fatal(err)
	}
	want := 400 + 0.1*950 + 0.05*950
	if math.Abs(v-want) > 10 {
		t.Errorf("cover Interpolate = %v, want ~%v", v, want)
	}
	if p.CoverModel() != cv {
		t.Error("CoverModel must expose the wrapped cover")
	}
}

func TestCoverBeatsNaiveOnGradient(t *testing.T) {
	// On a steep linear gradient, averaging over a 1 km disc biases toward
	// the disc mean while the regression models extrapolate the slope —
	// the mechanism behind Figure 6(b).
	w := gridWindow(30, 100) // 3 km × 3 km
	truth := func(x, y float64) float64 { return 400 + 0.1*x + 0.05*y }
	naive, err := NewNaive(w, 1000)
	if err != nil {
		t.Fatal(err)
	}
	cv, err := core.BuildCover(w, 0, 1e6, core.Config{Cluster: kmeans.Config{Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	cover, err := NewCover(cv)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var naiveSSE, coverSSE float64
	n := 200
	for i := 0; i < n; i++ {
		q := Q{T: rng.Float64() * 97, X: rng.Float64() * 2900, Y: rng.Float64() * 2900}
		want := truth(q.X, q.Y)
		nv, err := naive.Interpolate(q)
		if err != nil {
			t.Fatal(err)
		}
		cvv, err := cover.Interpolate(q)
		if err != nil {
			t.Fatal(err)
		}
		naiveSSE += (nv - want) * (nv - want)
		coverSSE += (cvv - want) * (cvv - want)
	}
	if coverSSE >= naiveSSE {
		t.Errorf("cover SSE %v should beat naive SSE %v", coverSSE, naiveSSE)
	}
}

func TestBoundaryInclusive(t *testing.T) {
	// A tuple exactly at distance r must be included (closed ball), for
	// all three average-based methods.
	w := tuple.Batch{{X: 100, Y: 0, S: 50}}
	for _, mk := range []func() (Processor, error){
		func() (Processor, error) { return NewNaive(w, 100) },
		func() (Processor, error) { return NewRTree(w, 100) },
		func() (Processor, error) { return NewVPTree(w, 100) },
	} {
		p, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		v, err := p.Interpolate(Q{X: 0, Y: 0})
		if err != nil {
			t.Errorf("%s: boundary tuple excluded: %v", p.Name(), err)
			continue
		}
		if v != 50 {
			t.Errorf("%s: v = %v, want 50", p.Name(), v)
		}
	}
}
