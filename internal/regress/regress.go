// Package regress implements ordinary-least-squares linear regression on
// configurable feature maps. It is the model-fitting substrate behind the
// paper's model cover: for each sub-region R_j produced by Ad-KMN, a linear
// regression model M_j is estimated over the raw tuples assigned to R_j
// (§2.1) and later evaluated at query positions (§2.2).
//
// The solver is a dense normal-equations solve via Gaussian elimination
// with partial pivoting and a small ridge fallback for rank-deficient
// designs (which occur naturally when a cluster's tuples are collinear —
// e.g. sampled along a straight road segment).
package regress

import (
	"errors"
	"fmt"
	"math"
)

// Features maps an input (t, x, y) to a feature vector. The first feature
// is conventionally the intercept term 1.
type Features interface {
	// Dim returns the length of the feature vector.
	Dim() int
	// Eval writes the feature vector for (t, x, y) into dst, which has
	// length Dim. Using a caller-provided buffer keeps fitting allocation
	// free on the hot path.
	Eval(dst []float64, t, x, y float64)
	// Name identifies the feature family for diagnostics and wire encoding.
	Name() string
}

// The feature families used by EnviroMeter. Linear on (x, y, t) is the
// paper's choice; the others support the model-family ablation.
var (
	// Constant fits only an intercept: the cluster mean.
	Constant Features = constantFeatures{}
	// LinearT fits s = β0 + β1·t: per-region temporal drift. For data
	// sampled along 1-D bus corridors this is the family that generalizes
	// best — spatial structure is captured by the region partitioning
	// itself, while spatial slopes fitted on corridor-constrained samples
	// are ill-determined perpendicular to the route.
	LinearT Features = linearTFeatures{}
	// LinearXY fits s = β0 + β1·x + β2·y.
	LinearXY Features = linearXYFeatures{}
	// LinearXYT fits s = β0 + β1·x + β2·y + β3·t. This is the model family
	// the paper's Ad-KMN uses ("we estimate linear regression models").
	LinearXYT Features = linearXYTFeatures{}
	// QuadraticXY fits a full second-order polynomial in x and y plus a
	// linear time term.
	QuadraticXY Features = quadraticXYFeatures{}
)

type constantFeatures struct{}

func (constantFeatures) Dim() int     { return 1 }
func (constantFeatures) Name() string { return "constant" }
func (constantFeatures) Eval(dst []float64, t, x, y float64) {
	dst[0] = 1
}

type linearTFeatures struct{}

func (linearTFeatures) Dim() int     { return 2 }
func (linearTFeatures) Name() string { return "linear-t" }
func (linearTFeatures) Eval(dst []float64, t, x, y float64) {
	dst[0], dst[1] = 1, t
}

type linearXYFeatures struct{}

func (linearXYFeatures) Dim() int     { return 3 }
func (linearXYFeatures) Name() string { return "linear-xy" }
func (linearXYFeatures) Eval(dst []float64, t, x, y float64) {
	dst[0], dst[1], dst[2] = 1, x, y
}

type linearXYTFeatures struct{}

func (linearXYTFeatures) Dim() int     { return 4 }
func (linearXYTFeatures) Name() string { return "linear-xyt" }
func (linearXYTFeatures) Eval(dst []float64, t, x, y float64) {
	dst[0], dst[1], dst[2], dst[3] = 1, x, y, t
}

type quadraticXYFeatures struct{}

func (quadraticXYFeatures) Dim() int     { return 7 }
func (quadraticXYFeatures) Name() string { return "quadratic-xy" }
func (quadraticXYFeatures) Eval(dst []float64, t, x, y float64) {
	dst[0], dst[1], dst[2], dst[3] = 1, x, y, t
	dst[4], dst[5], dst[6] = x*x, y*y, x*y
}

// FeaturesByName resolves a feature family from its wire name.
func FeaturesByName(name string) (Features, error) {
	switch name {
	case "constant":
		return Constant, nil
	case "linear-t":
		return LinearT, nil
	case "linear-xy":
		return LinearXY, nil
	case "linear-xyt":
		return LinearXYT, nil
	case "quadratic-xy":
		return QuadraticXY, nil
	default:
		return nil, fmt.Errorf("regress: unknown feature family %q", name)
	}
}

// Model is a fitted linear model: Predict = coef · features(t, x, y). It
// is a small value — a family and a coefficient slice — that refers to
// its coefficients rather than holding a copy of them.
type Model struct {
	features Features
	coef     []float64
}

// View returns the model of family f with coefficients coef, which must
// have length f.Dim(). It does not copy coef: the model reads whatever
// coef holds when it is evaluated, and is valid for as long as coef is.
// This is how a cover evaluates a region's model out of its coefficient
// column.
func View(f Features, coef []float64) Model { return Model{features: f, coef: coef} }

// Fit estimates an OLS model of the observations. ts, xs, ys and ss must
// have equal length n ≥ 1. Rank-deficient designs are regularized with a
// tiny ridge term so that degenerate clusters (single point, collinear
// points) still yield a usable model rather than an error: the paper's
// Ad-KMN routinely creates very small clusters while splitting.
func Fit(f Features, ts, xs, ys, ss []float64) (*Model, error) {
	coef := make([]float64, f.Dim())
	if err := new(Fitter).Fit(coef, f, ts, xs, ys, ss); err != nil {
		return nil, err
	}
	return &Model{features: f, coef: coef}, nil
}

// Fitter fits models into memory its caller owns, with scratch it keeps
// between fits: a caller that fits one model per region per split round
// allocates nothing per fit. A Fitter must not be used from two goroutines
// at once; the zero value is ready.
type Fitter struct {
	// scratch holds, for the family dimension d last seen, the normal
	// equations XᵀX (d×d) and Xᵀs (d), one feature row (d), and the
	// solver's working copies of the first two.
	scratch []float64
}

// Fit is the package-level Fit writing the coefficients into coef, which
// must have length f.Dim(); View(f, coef) is the fitted model.
func (ft *Fitter) Fit(coef []float64, f Features, ts, xs, ys, ss []float64) error {
	n := len(ss)
	if n == 0 {
		return errors.New("regress: no observations")
	}
	if len(ts) != n || len(xs) != n || len(ys) != n {
		return fmt.Errorf("regress: length mismatch t=%d x=%d y=%d s=%d",
			len(ts), len(xs), len(ys), n)
	}
	d := f.Dim()
	if len(coef) != d {
		return fmt.Errorf("regress: %s wants %d coefficients, got room for %d", f.Name(), d, len(coef))
	}
	if need := 2*d*d + 3*d; cap(ft.scratch) < need {
		ft.scratch = make([]float64, need)
	}
	xtx, xty, row := ft.scratch[:d*d], ft.scratch[d*d:d*d+d], ft.scratch[d*d+d:d*d+2*d]
	work := ft.scratch[d*d+2*d : 2*d*d+3*d]
	clear(xtx)
	clear(xty)

	// Accumulate the normal equations XᵀX β = Xᵀs.
	for i := 0; i < n; i++ {
		f.Eval(row, ts[i], xs[i], ys[i])
		for a := 0; a < d; a++ {
			xty[a] += row[a] * ss[i]
			for b := a; b < d; b++ {
				xtx[a*d+b] += row[a] * row[b]
			}
		}
	}
	// Mirror the upper triangle.
	for a := 0; a < d; a++ {
		for b := 0; b < a; b++ {
			xtx[a*d+b] = xtx[b*d+a]
		}
	}

	if !solveSPD(coef, xtx, xty, work, d) {
		// Rank deficient: retry with a small ridge proportional to the
		// trace, which always succeeds.
		var trace float64
		for a := 0; a < d; a++ {
			trace += xtx[a*d+a]
		}
		ridge := 1e-9 * (trace + 1)
		for a := 0; a < d; a++ {
			xtx[a*d+a] += ridge
		}
		if !solveSPD(coef, xtx, xty, work, d) {
			return errors.New("regress: singular design even with ridge")
		}
	}
	return nil
}

// solveSPD solves A β = b for a d×d system via Gaussian elimination with
// partial pivoting, writing β to out; it reports false when a pivot falls
// below tolerance. A is row-major; the elimination runs on copies in work
// (d·d + d long), so the caller can retry with regularization.
func solveSPD(out, a, b, work []float64, d int) bool {
	m, rhs := work[:d*d], work[d*d:d*d+d]
	copy(m, a)
	copy(rhs, b)

	for col := 0; col < d; col++ {
		// Partial pivot.
		pivot := col
		best := math.Abs(m[col*d+col])
		for r := col + 1; r < d; r++ {
			if v := math.Abs(m[r*d+col]); v > best {
				best, pivot = v, r
			}
		}
		if best < 1e-12 {
			return false
		}
		if pivot != col {
			for c := 0; c < d; c++ {
				m[col*d+c], m[pivot*d+c] = m[pivot*d+c], m[col*d+c]
			}
			rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
		}
		inv := 1 / m[col*d+col]
		for r := col + 1; r < d; r++ {
			f := m[r*d+col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < d; c++ {
				m[r*d+c] -= f * m[col*d+c]
			}
			rhs[r] -= f * rhs[col]
		}
	}
	// Back substitution.
	for r := d - 1; r >= 0; r-- {
		sum := rhs[r]
		for c := r + 1; c < d; c++ {
			sum -= m[r*d+c] * out[c]
		}
		out[r] = sum / m[r*d+r]
	}
	return true
}

// MeanModel builds a constant-prediction model expressed in family f: the
// intercept carries the mean of ss and all other coefficients are zero.
// All built-in families place the intercept first, so the model predicts
// the mean everywhere. Ad-KMN falls back to this for clusters too small to
// support a full regression.
func MeanModel(f Features, ss []float64) (*Model, error) {
	coef := make([]float64, f.Dim())
	if err := MeanInto(coef, f, ss); err != nil {
		return nil, err
	}
	return &Model{features: f, coef: coef}, nil
}

// MeanInto is MeanModel writing the coefficients into coef, which must
// have length f.Dim(); View(f, coef) is the model.
func MeanInto(coef []float64, f Features, ss []float64) error {
	if len(ss) == 0 {
		return errors.New("regress: no observations")
	}
	if len(coef) != f.Dim() {
		return fmt.Errorf("regress: %s wants %d coefficients, got room for %d", f.Name(), f.Dim(), len(coef))
	}
	var mean float64
	for _, s := range ss {
		mean += s
	}
	mean /= float64(len(ss))
	clear(coef)
	coef[0] = mean
	return nil
}

// NewModel reconstructs a model from its feature family and a copy of
// coef, checking that the family takes that many coefficients.
func NewModel(f Features, coef []float64) (*Model, error) {
	if len(coef) != f.Dim() {
		return nil, fmt.Errorf("regress: %s wants %d coefficients, got %d",
			f.Name(), f.Dim(), len(coef))
	}
	cp := make([]float64, len(coef))
	copy(cp, coef)
	return &Model{features: f, coef: cp}, nil
}

// Predict evaluates the model at (t, x, y).
func (m Model) Predict(t, x, y float64) float64 {
	switch m.features.(type) {
	case constantFeatures:
		return m.coef[0]
	case linearTFeatures:
		return m.coef[0] + m.coef[1]*t
	case linearXYFeatures:
		return m.coef[0] + m.coef[1]*x + m.coef[2]*y
	case linearXYTFeatures:
		return m.coef[0] + m.coef[1]*x + m.coef[2]*y + m.coef[3]*t
	case quadraticXYFeatures:
		return m.coef[0] + m.coef[1]*x + m.coef[2]*y + m.coef[3]*t +
			m.coef[4]*x*x + m.coef[5]*y*y + m.coef[6]*x*y
	}
	// Generic fallback for external feature families.
	row := make([]float64, m.features.Dim())
	m.features.Eval(row, t, x, y)
	var sum float64
	for i, c := range m.coef {
		sum += c * row[i]
	}
	return sum
}

// Coef returns a copy of the model coefficients.
func (m Model) Coef() []float64 {
	cp := make([]float64, len(m.coef))
	copy(cp, m.coef)
	return cp
}

// Features returns the model's feature family.
func (m Model) Features() Features { return m.features }

func (m Model) String() string {
	return fmt.Sprintf("Model(%s, coef=%v)", m.features.Name(), m.coef)
}
