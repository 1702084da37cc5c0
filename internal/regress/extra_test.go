package regress

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestLinearTFamily(t *testing.T) {
	if LinearT.Dim() != 2 || LinearT.Name() != "linear-t" {
		t.Fatalf("LinearT dim=%d name=%q", LinearT.Dim(), LinearT.Name())
	}
	dst := make([]float64, 2)
	LinearT.Eval(dst, 7, 100, 200)
	if dst[0] != 1 || dst[1] != 7 {
		t.Errorf("Eval = %v, want [1 7]", dst)
	}
	got, err := FeaturesByName("linear-t")
	if err != nil || got.Name() != "linear-t" {
		t.Errorf("FeaturesByName: %v %v", got, err)
	}
}

func TestLinearTFitRecoversDrift(t *testing.T) {
	// s = 500 + 0.2 t, positions irrelevant.
	n := 100
	ts := make([]float64, n)
	xs := make([]float64, n)
	ys := make([]float64, n)
	ss := make([]float64, n)
	for i := range ts {
		ts[i] = float64(i * 10)
		xs[i] = float64(i % 7)
		ys[i] = float64(i % 5)
		ss[i] = 500 + 0.2*ts[i]
	}
	m, err := Fit(LinearT, ts, xs, ys, ss)
	if err != nil {
		t.Fatal(err)
	}
	coef := m.Coef()
	if math.Abs(coef[0]-500) > 1e-6 || math.Abs(coef[1]-0.2) > 1e-9 {
		t.Errorf("coef = %v, want [500 0.2]", coef)
	}
	// Predict at an unseen time, arbitrary position.
	if got := m.Predict(2000, 99, 99); math.Abs(got-900) > 1e-6 {
		t.Errorf("Predict = %v, want 900", got)
	}
}

func TestMeanModel(t *testing.T) {
	ss := []float64{10, 20, 30}
	for _, f := range []Features{Constant, LinearT, LinearXY, LinearXYT, QuadraticXY} {
		m, err := MeanModel(f, ss)
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		// Predicts the mean everywhere, regardless of inputs.
		for _, in := range [][3]float64{{0, 0, 0}, {100, -50, 7}, {1e6, 1e6, 1e6}} {
			if got := m.Predict(in[0], in[1], in[2]); math.Abs(got-20) > 1e-12 {
				t.Errorf("%s: Predict(%v) = %v, want 20", f.Name(), in, got)
			}
		}
		zeros := make([]float64, len(ss))
		st := statsOf(m, zeros, zeros, zeros, ss)
		if st.n != 3 {
			t.Errorf("%s: N = %d", f.Name(), st.n)
		}
		// RSS is the variance sum: (10-20)² + 0 + (30-20)² = 200.
		if math.Abs(st.rss-200) > 1e-12 {
			t.Errorf("%s: RSS = %v, want 200", f.Name(), st.rss)
		}
	}
	if _, err := MeanModel(Constant, nil); err == nil {
		t.Error("empty MeanModel should error")
	}
}

func TestModelAccessors(t *testing.T) {
	ts := []float64{0, 1, 2, 3}
	xs := []float64{0, 1, 2, 3}
	ys := []float64{0, 0, 0, 0}
	ss := []float64{1, 3, 5, 7} // exactly 1 + 2x
	m, err := Fit(LinearXY, ts, xs, ys, ss)
	if err != nil {
		t.Fatal(err)
	}
	if m.Features().Name() != "linear-xy" {
		t.Errorf("Features = %v", m.Features().Name())
	}
	st := statsOf(m, ts, xs, ys, ss)
	if st.rss > 1e-9 {
		t.Errorf("RSS = %v, want ~0", st.rss)
	}
	if st.rmse() > 1e-6 {
		t.Errorf("RMSE = %v", st.rmse())
	}
	if r2 := st.r2(); math.Abs(r2-1) > 1e-9 {
		t.Errorf("R2 = %v, want 1", r2)
	}
	if st.n != 4 {
		t.Errorf("N = %d, want 4", st.n)
	}
	s := m.String()
	if !strings.Contains(s, "linear-xy") || !strings.Contains(s, "coef=") {
		t.Errorf("String = %q", s)
	}
}

func TestR2ConstantTarget(t *testing.T) {
	// tss == 0: R² is 1 for an exact fit, 0 otherwise.
	ss := []float64{5, 5, 5}
	zeros := make([]float64, len(ss))
	exact, err := MeanModel(Constant, ss)
	if err != nil {
		t.Fatal(err)
	}
	if r2 := statsOf(exact, zeros, zeros, zeros, ss).r2(); r2 != 1 {
		t.Errorf("exact constant fit R2 = %v, want 1", r2)
	}
	// A model with the wrong constant against constant data has rss > 0.
	m := View(Constant, []float64{4})
	if r2 := statsOf(&m, zeros, zeros, zeros, ss).r2(); r2 != 0 {
		t.Errorf("imperfect constant fit R2 = %v, want 0", r2)
	}
}

func TestRMSEZeroObservations(t *testing.T) {
	m, err := NewModel(Constant, []float64{7})
	if err != nil {
		t.Fatal(err)
	}
	st := statsOf(m, nil, nil, nil, nil)
	if st.rmse() != 0 {
		t.Errorf("RMSE over no observations = %v, want 0", st.rmse())
	}
	if st.n != 0 {
		t.Errorf("N over no observations = %d, want 0", st.n)
	}
}

// customFeatures exercises the generic (non-type-switched) Predict path.
type customFeatures struct{}

func (customFeatures) Dim() int     { return 2 }
func (customFeatures) Name() string { return "custom" }
func (customFeatures) Eval(dst []float64, t, x, y float64) {
	dst[0], dst[1] = 1, x*y
}

func TestPredictGenericFallback(t *testing.T) {
	m, err := NewModel(customFeatures{}, []float64{10, 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Predict(0, 3, 4); math.Abs(got-34) > 1e-12 {
		t.Errorf("Predict = %v, want 34 (10 + 2·12)", got)
	}
}

func TestFitCustomFeatures(t *testing.T) {
	// Fit with an external family: s = 5 + 3·x·y.
	n := 50
	ts := make([]float64, n)
	xs := make([]float64, n)
	ys := make([]float64, n)
	ss := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i%10) - 5
		ys[i] = float64(i%7) - 3
		ss[i] = 5 + 3*xs[i]*ys[i]
	}
	m, err := Fit(customFeatures{}, ts, xs, ys, ss)
	if err != nil {
		t.Fatal(err)
	}
	coef := m.Coef()
	if math.Abs(coef[0]-5) > 1e-6 || math.Abs(coef[1]-3) > 1e-6 {
		t.Errorf("coef = %v, want [5 3]", coef)
	}
}

// TestFitterAllocatesNothing: fitting into caller-owned models on a warm
// Fitter costs no allocation, whichever path the solver takes.
func TestFitterAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 200
	ts, xs, ys, ss := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range ss {
		ts[i], xs[i], ys[i] = rng.Float64()*3600, rng.Float64()*4000, rng.Float64()*4000
		ss[i] = 400 + 0.01*xs[i] + rng.NormFloat64()
	}
	collinear := make([]float64, n) // x ≡ 0: rank deficient, takes the ridge retry
	var (
		ft   Fitter
		coef = make([]float64, QuadraticXY.Dim())
	)
	fit := func(f Features, xs []float64) {
		if err := ft.Fit(coef[:f.Dim()], f, ts, xs, ys, ss); err != nil {
			t.Fatal(err)
		}
	}
	fit(QuadraticXY, xs) // the widest family sizes the scratch
	for _, f := range []Features{LinearXYT, QuadraticXY, Constant} {
		if allocs := testing.AllocsPerRun(10, func() { fit(f, xs); fit(f, collinear) }); allocs != 0 {
			t.Errorf("%s: %.0f allocs per two fits on a warm Fitter, want 0", f.Name(), allocs)
		}
		if allocs := testing.AllocsPerRun(10, func() {
			if err := MeanInto(coef[:f.Dim()], f, ss); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: MeanInto = %.0f allocs, want 0", f.Name(), allocs)
		}
	}
	// Into-variants compute what the allocating ones do.
	want, err := Fit(LinearXYT, ts, xs, ys, ss)
	if err != nil {
		t.Fatal(err)
	}
	fit(LinearXYT, xs)
	m := View(LinearXYT, coef[:LinearXYT.Dim()])
	for i, c := range want.Coef() {
		if m.Coef()[i] != c {
			t.Errorf("coefficient %d: Fitter %v, Fit %v", i, m.Coef()[i], c)
		}
	}
	if got, w := statsOf(&m, ts, xs, ys, ss), statsOf(want, ts, xs, ys, ss); got != w {
		t.Errorf("diagnostics differ: Fitter %+v, Fit %+v", got, w)
	}
}
