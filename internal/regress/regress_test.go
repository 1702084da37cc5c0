package regress

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// fitStats are a model's diagnostics over a set of observations,
// computed from Predict: the observation count and the residual and total
// sums of squares.
type fitStats struct {
	n        int
	rss, tss float64
}

func statsOf(m *Model, ts, xs, ys, ss []float64) fitStats {
	st := fitStats{n: len(ss)}
	var mean float64
	for _, s := range ss {
		mean += s
	}
	mean /= float64(len(ss))
	for i, s := range ss {
		r := s - m.Predict(ts[i], xs[i], ys[i])
		st.rss += r * r
		dm := s - mean
		st.tss += dm * dm
	}
	return st
}

// r2 is the coefficient of determination. For constant targets (tss == 0)
// it is 1 if the fit is exact and 0 otherwise.
func (st fitStats) r2() float64 {
	if st.tss == 0 {
		if st.rss < 1e-12 {
			return 1
		}
		return 0
	}
	return 1 - st.rss/st.tss
}

// rmse is the root-mean-square error over the observations.
func (st fitStats) rmse() float64 {
	if st.n == 0 {
		return 0
	}
	return math.Sqrt(st.rss / float64(st.n))
}

func TestFeatureFamilies(t *testing.T) {
	tests := []struct {
		f    Features
		dim  int
		name string
	}{
		{Constant, 1, "constant"},
		{LinearXY, 3, "linear-xy"},
		{LinearXYT, 4, "linear-xyt"},
		{QuadraticXY, 7, "quadratic-xy"},
	}
	for _, tt := range tests {
		if tt.f.Dim() != tt.dim {
			t.Errorf("%s: Dim = %d, want %d", tt.name, tt.f.Dim(), tt.dim)
		}
		if tt.f.Name() != tt.name {
			t.Errorf("Name = %q, want %q", tt.f.Name(), tt.name)
		}
		got, err := FeaturesByName(tt.name)
		if err != nil || got.Name() != tt.name {
			t.Errorf("FeaturesByName(%q) = %v, %v", tt.name, got, err)
		}
	}
	if _, err := FeaturesByName("cubic"); err == nil {
		t.Error("expected error for unknown family")
	}
}

func TestFitRecoversExactLinear(t *testing.T) {
	// s = 400 + 0.02x - 0.01y + 0.001t, no noise.
	rng := rand.New(rand.NewSource(7))
	n := 200
	ts := make([]float64, n)
	xs := make([]float64, n)
	ys := make([]float64, n)
	ss := make([]float64, n)
	for i := 0; i < n; i++ {
		ts[i] = rng.Float64() * 1e4
		xs[i] = (rng.Float64() - 0.5) * 5000
		ys[i] = (rng.Float64() - 0.5) * 5000
		ss[i] = 400 + 0.02*xs[i] - 0.01*ys[i] + 0.001*ts[i]
	}
	m, err := Fit(LinearXYT, ts, xs, ys, ss)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{400, 0.02, -0.01, 0.001}
	for i, c := range m.Coef() {
		if math.Abs(c-want[i]) > 1e-6 {
			t.Errorf("coef[%d] = %v, want %v", i, c, want[i])
		}
	}
	st := statsOf(m, ts, xs, ys, ss)
	if r2 := st.r2(); r2 < 0.999999 {
		t.Errorf("R2 = %v, want ~1", r2)
	}
	if st.rmse() > 1e-6 {
		t.Errorf("RMSE = %v, want ~0", st.rmse())
	}
	if st.n != n {
		t.Errorf("N = %d, want %d", st.n, n)
	}
}

func TestFitWithNoiseBeatsConstant(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 500
	ts := make([]float64, n)
	xs := make([]float64, n)
	ys := make([]float64, n)
	ss := make([]float64, n)
	for i := 0; i < n; i++ {
		ts[i] = rng.Float64() * 1000
		xs[i] = rng.Float64() * 1000
		ys[i] = rng.Float64() * 1000
		ss[i] = 500 + 0.3*xs[i] + rng.NormFloat64()*5
	}
	lin, err := Fit(LinearXY, ts, xs, ys, ss)
	if err != nil {
		t.Fatal(err)
	}
	con, err := Fit(Constant, ts, xs, ys, ss)
	if err != nil {
		t.Fatal(err)
	}
	linRMSE, conRMSE := statsOf(lin, ts, xs, ys, ss).rmse(), statsOf(con, ts, xs, ys, ss).rmse()
	if linRMSE >= conRMSE {
		t.Errorf("linear RMSE %v should beat constant RMSE %v", linRMSE, conRMSE)
	}
	if linRMSE > 10 {
		t.Errorf("linear RMSE %v unexpectedly large", linRMSE)
	}
}

func TestConstantModelIsMean(t *testing.T) {
	ss := []float64{10, 20, 30, 40}
	zeros := make([]float64, len(ss))
	m, err := Fit(Constant, zeros, zeros, zeros, ss)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Predict(123, 456, 789); math.Abs(got-25) > 1e-9 {
		t.Errorf("constant prediction = %v, want 25", got)
	}
}

func TestFitDegenerateDesigns(t *testing.T) {
	t.Run("single point", func(t *testing.T) {
		m, err := Fit(LinearXYT, []float64{5}, []float64{1}, []float64{2}, []float64{42})
		if err != nil {
			t.Fatalf("single-point fit should succeed via ridge: %v", err)
		}
		if got := m.Predict(5, 1, 2); math.Abs(got-42) > 1 {
			t.Errorf("prediction at the sole point = %v, want ~42", got)
		}
	})
	t.Run("collinear points", func(t *testing.T) {
		// All points on the line y = 2x: the xy design is rank deficient.
		n := 50
		ts := make([]float64, n)
		xs := make([]float64, n)
		ys := make([]float64, n)
		ss := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
			ys[i] = 2 * float64(i)
			ss[i] = 100 + float64(i)
		}
		m, err := Fit(LinearXY, ts, xs, ys, ss)
		if err != nil {
			t.Fatalf("collinear fit should succeed via ridge: %v", err)
		}
		// On-line predictions should still be accurate.
		if got := m.Predict(0, 10, 20); math.Abs(got-110) > 0.5 {
			t.Errorf("on-line prediction = %v, want ~110", got)
		}
	})
	t.Run("identical points", func(t *testing.T) {
		ts := []float64{1, 1, 1}
		xs := []float64{2, 2, 2}
		ys := []float64{3, 3, 3}
		ss := []float64{10, 12, 14}
		m, err := Fit(LinearXYT, ts, xs, ys, ss)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Predict(1, 2, 3); math.Abs(got-12) > 0.5 {
			t.Errorf("prediction = %v, want ~12 (the mean)", got)
		}
	})
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(LinearXY, nil, nil, nil, nil); err == nil {
		t.Error("expected error for empty input")
	}
	if _, err := Fit(LinearXY, []float64{1}, []float64{1, 2}, []float64{1}, []float64{1}); err == nil {
		t.Error("expected error for length mismatch")
	}
}

func TestNewModelRoundTrip(t *testing.T) {
	coef := []float64{400, 0.1, -0.2, 0.05}
	m, err := NewModel(LinearXYT, coef)
	if err != nil {
		t.Fatal(err)
	}
	want := 400 + 0.1*10 - 0.2*20 + 0.05*30
	if got := m.Predict(30, 10, 20); math.Abs(got-want) > 1e-12 {
		t.Errorf("Predict = %v, want %v", got, want)
	}
	// Coefficients must be copied.
	coef[0] = 999
	if m.Coef()[0] != 400 {
		t.Error("NewModel must copy coefficients")
	}
	if _, err := NewModel(LinearXYT, []float64{1, 2}); err == nil {
		t.Error("expected error for wrong coefficient count")
	}
}

func TestPredictMatchesGenericEval(t *testing.T) {
	// The type-switched fast paths must agree with the generic dot product.
	rng := rand.New(rand.NewSource(9))
	for _, f := range []Features{Constant, LinearXY, LinearXYT, QuadraticXY} {
		coef := make([]float64, f.Dim())
		for i := range coef {
			coef[i] = rng.NormFloat64()
		}
		m, err := NewModel(f, coef)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 20; trial++ {
			tv, xv, yv := rng.Float64()*100, rng.Float64()*100, rng.Float64()*100
			row := make([]float64, f.Dim())
			f.Eval(row, tv, xv, yv)
			var want float64
			for i := range coef {
				want += coef[i] * row[i]
			}
			if got := m.Predict(tv, xv, yv); math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
				t.Errorf("%s: Predict = %v, want %v", f.Name(), got, want)
			}
		}
	}
}

func TestQuadraticFitsCurvedSurface(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	n := 400
	ts := make([]float64, n)
	xs := make([]float64, n)
	ys := make([]float64, n)
	ss := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = (rng.Float64() - 0.5) * 100
		ys[i] = (rng.Float64() - 0.5) * 100
		ss[i] = 3 + 0.5*xs[i]*xs[i] - 0.25*ys[i]*ys[i] + xs[i]*ys[i]
	}
	lin, err := Fit(LinearXY, ts, xs, ys, ss)
	if err != nil {
		t.Fatal(err)
	}
	quad, err := Fit(QuadraticXY, ts, xs, ys, ss)
	if err != nil {
		t.Fatal(err)
	}
	// Normal equations square the condition number, so allow small numeric
	// residue relative to the target scale (values reach ~3700 here).
	quadRMSE, linRMSE := statsOf(quad, ts, xs, ys, ss).rmse(), statsOf(lin, ts, xs, ys, ss).rmse()
	if quadRMSE > 0.1 {
		t.Errorf("quadratic RMSE = %v, want ≈0 on quadratic data", quadRMSE)
	}
	if quadRMSE >= linRMSE {
		t.Errorf("quadratic (%v) should beat linear (%v)", quadRMSE, linRMSE)
	}
}

func TestR2Bounds(t *testing.T) {
	// R² of an OLS fit with intercept is within [0, 1] up to numeric noise.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(50)
		ts := make([]float64, n)
		xs := make([]float64, n)
		ys := make([]float64, n)
		ss := make([]float64, n)
		for i := 0; i < n; i++ {
			ts[i] = rng.NormFloat64() * 10
			xs[i] = rng.NormFloat64() * 10
			ys[i] = rng.NormFloat64() * 10
			ss[i] = rng.NormFloat64() * 10
		}
		m, err := Fit(LinearXYT, ts, xs, ys, ss)
		if err != nil {
			return false
		}
		r2 := statsOf(m, ts, xs, ys, ss).r2()
		return r2 > -1e-6 && r2 < 1+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
