// Package tuple defines the raw sensor tuple — the unit of data produced by
// the community-driven sensor network — together with batch utilities and
// the codecs used to persist and ship tuples.
//
// Following the paper (§2.1), a raw tuple is b_i = (t_i, x_i, y_i, s_i)
// where s_i is the sensed value and (x_i, y_i) the position, in the local
// metric frame, at time t_i. Time is measured in seconds since the start of
// the deployment epoch; the paper's windows W_c = [cH, (c+1)H) are defined
// over this axis.
package tuple

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/geo"
)

// Pollutant identifies the sensed phenomenon. The OpenSense buses carry
// several sensors; the paper's evaluation focuses on CO2.
type Pollutant uint8

const (
	// CO2 is carbon dioxide, measured in parts per million (ppm).
	CO2 Pollutant = iota
	// CO is carbon monoxide, in ppm.
	CO
	// PM is suspended particulate matter, in µg/m³.
	PM
	numPollutants
)

// String returns the conventional abbreviation for the pollutant.
func (p Pollutant) String() string {
	switch p {
	case CO2:
		return "CO2"
	case CO:
		return "CO"
	case PM:
		return "PM"
	default:
		return fmt.Sprintf("Pollutant(%d)", uint8(p))
	}
}

// Valid reports whether p is a known pollutant.
func (p Pollutant) Valid() bool { return p < numPollutants }

// ParsePollutant resolves a pollutant from its conventional abbreviation,
// case-insensitively ("co2", "CO", "pm"). It is the single parser behind
// the HTTP pollutant parameter and the CLI flags.
func ParsePollutant(s string) (Pollutant, error) {
	switch {
	case strings.EqualFold(s, "CO2"):
		return CO2, nil
	case strings.EqualFold(s, "CO"):
		return CO, nil
	case strings.EqualFold(s, "PM"):
		return PM, nil
	default:
		return 0, fmt.Errorf("tuple: unknown pollutant %q (want CO2, CO, or PM)", s)
	}
}

// ParsePollutantList resolves a comma-separated pollutant list ("CO2,pm"),
// skipping empty entries. It errors when no pollutant remains — the
// shared parser behind the CLI -pollutants flags.
func ParsePollutantList(s string) ([]Pollutant, error) {
	var out []Pollutant
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		p, err := ParsePollutant(name)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("tuple: no pollutants in %q", s)
	}
	return out, nil
}

// NormalRange returns the span of values considered "normal" for the
// pollutant in the environment. The paper defines the approximation error
// of a model as the average percentage error *compared to the normal range
// of s_i in the environment (pollutant specific)*; this is that range.
//
// For CO2 the range spans clean outdoor air (~350 ppm) to the OSHA 8-hour
// TWA limit (5000 ppm).
func (p Pollutant) NormalRange() (lo, hi float64) {
	switch p {
	case CO2:
		return 350, 5000
	case CO:
		return 0, 50
	case PM:
		return 0, 500
	default:
		return 0, 1
	}
}

// Unit returns the measurement unit of the pollutant.
func (p Pollutant) Unit() string {
	switch p {
	case CO2, CO:
		return "ppm"
	case PM:
		return "µg/m³"
	default:
		return ""
	}
}

// Raw is one raw sensor tuple b_i = (t_i, x_i, y_i, s_i).
type Raw struct {
	T float64 // seconds since deployment epoch
	X float64 // meters east (local frame)
	Y float64 // meters north (local frame)
	S float64 // sensed value, in the pollutant's unit
}

// Pos returns the tuple's position in the local frame.
func (r Raw) Pos() geo.Point { return geo.Point{X: r.X, Y: r.Y} }

// Validate checks the tuple for NaN/Inf fields and a non-negative time.
func (r Raw) Validate() error {
	if !finite(r.T) || !finite(r.X) || !finite(r.Y) || !finite(r.S) {
		return r.nonFinite()
	}
	if r.T < 0 {
		return errNegativeTime
	}
	return nil
}

var errNegativeTime = errors.New("tuple: negative timestamp")

// finite reports whether v is neither NaN nor infinite.
func finite(v float64) bool { return math.Abs(v) <= math.MaxFloat64 }

// nonFinite names the first of r's fields, in the order t, x, y, s, that
// is NaN or infinite.
func (r Raw) nonFinite() error {
	for i, v := range [...]float64{r.T, r.X, r.Y, r.S} {
		name := "txys"[i : i+1]
		if math.IsNaN(v) {
			return fmt.Errorf("tuple: field %s is NaN", name)
		}
		if math.IsInf(v, 0) {
			return fmt.Errorf("tuple: field %s is infinite", name)
		}
	}
	return nil
}

func (r Raw) String() string {
	return fmt.Sprintf("b(t=%.0f x=%.1f y=%.1f s=%.2f)", r.T, r.X, r.Y, r.S)
}

// Batch is an ordered collection of raw tuples.
type Batch []Raw

// Validate validates every tuple, reporting the index of the first bad one.
func (b Batch) Validate() error {
	for i, r := range b {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("tuple %d: %w", i, err)
		}
	}
	return nil
}

// byTime orders tuples by timestamp.
func byTime(a, b Raw) int { return cmp.Compare(a.T, b.T) }

// SortByTime sorts the batch by timestamp (stable, ascending).
func (b Batch) SortByTime() { slices.SortStableFunc(b, byTime) }

// SortedByTime reports whether timestamps are non-decreasing.
func (b Batch) SortedByTime() bool { return slices.IsSortedFunc(b, byTime) }

// TimeSpan returns the minimum and maximum timestamps. ok is false for an
// empty batch.
func (b Batch) TimeSpan() (min, max float64, ok bool) {
	if len(b) == 0 {
		return 0, 0, false
	}
	min, max = b[0].T, b[0].T
	for _, r := range b[1:] {
		if r.T < min {
			min = r.T
		}
		if r.T > max {
			max = r.T
		}
	}
	return min, max, true
}

// Bounds returns the spatial bounding box of the batch, as folding
// geo.Rect.ExpandToPoint over it does. ok is false for an empty batch.
//
// It compares plainly, which agrees with the math.Min and math.Max that
// ExpandToPoint calls unless a NaN is met or a corner is a zero (whose
// sign they leave to the order of the batch): only then does it fold.
func (b Batch) Bounds() (geo.Rect, bool) {
	if len(b) == 0 {
		return geo.Rect{}, false
	}
	r := geo.Rect{Min: b[0].Pos(), Max: b[0].Pos()}
	nan := false
	for _, t := range b {
		if t.X < r.Min.X {
			r.Min.X = t.X
		} else if t.X > r.Max.X {
			r.Max.X = t.X
		}
		if t.Y < r.Min.Y {
			r.Min.Y = t.Y
		} else if t.Y > r.Max.Y {
			r.Max.Y = t.Y
		}
		nan = nan || t.X != t.X || t.Y != t.Y
	}
	if nan || r.Min.X == 0 || r.Min.Y == 0 || r.Max.X == 0 || r.Max.Y == 0 {
		r = geo.Rect{Min: b[0].Pos(), Max: b[0].Pos()}
		for _, t := range b[1:] {
			r = r.ExpandToPoint(t.Pos())
		}
	}
	return r, true
}

// Positions extracts the positions of all tuples, in order.
func (b Batch) Positions() []geo.Point {
	pts := make([]geo.Point, len(b))
	for i, r := range b {
		pts[i] = r.Pos()
	}
	return pts
}

// Values extracts the sensed values of all tuples, in order.
func (b Batch) Values() []float64 {
	vs := make([]float64, len(b))
	for i, r := range b {
		vs[i] = r.S
	}
	return vs
}

// MeanValue returns the arithmetic mean of the sensed values. ok is false
// for an empty batch.
func (b Batch) MeanValue() (mean float64, ok bool) {
	if len(b) == 0 {
		return 0, false
	}
	var sum float64
	for _, r := range b {
		sum += r.S
	}
	return sum / float64(len(b)), true
}

// Clone returns a deep copy of the batch.
func (b Batch) Clone() Batch {
	cp := make(Batch, len(b))
	copy(cp, b)
	return cp
}

// FilterRadius returns the tuples whose position lies within radius meters
// of center. This is the primitive behind the paper's naive query method.
func (b Batch) FilterRadius(center geo.Point, radius float64) Batch {
	r2 := radius * radius
	var out Batch
	for _, t := range b {
		if t.Pos().Dist2(center) <= r2 {
			out = append(out, t)
		}
	}
	return out
}

// WindowIndex returns c such that t lies in W_c = [cH, (c+1)H). H must be
// positive.
func WindowIndex(t, h float64) int {
	return int(math.Floor(t / h))
}

// WindowBounds returns the [start, end) time bounds of window W_c.
func WindowBounds(c int, h float64) (start, end float64) {
	return float64(c) * h, float64(c+1) * h
}
