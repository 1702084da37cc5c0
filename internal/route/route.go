// Package route implements the EnviroMeter application's route recording
// (§3): "The application has the ability to record routes. After a route
// has been recorded, the user can view it on a map. In addition, the
// application presents the average pollution level through the route"
// with OSHA guidance and green-to-red per-point markers.
//
// A Recorder accumulates GPS fixes as the user moves, filtering jitter;
// the finished Route is summarized against any pollution oracle (the
// model-cache client on the phone, or the server's query engine).
package route

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/eval"
	"repro/internal/geo"
	"repro/internal/tuple"
)

// Fix is one recorded position update.
type Fix struct {
	T   float64   // stream time, seconds
	Pos geo.Point // local frame
}

// Fix filtering: a fix closer than minDistance metres to the previous kept
// fix is GPS jitter while standing still, and one implying more than
// maxSpeed m/s (~250 km/h) since it is a GPS glitch.
const (
	minDistance = 10
	maxSpeed    = 70
)

// Recorder accumulates a route from position updates.
type Recorder struct {
	fixes   []Fix
	dropped int
}

// NewRecorder starts a recording.
func NewRecorder() *Recorder { return &Recorder{} }

// Add offers a fix. It returns true if the fix was kept. Fixes must
// arrive in time order; out-of-order fixes are dropped.
func (r *Recorder) Add(f Fix) bool {
	if math.IsNaN(f.T) || math.IsNaN(f.Pos.X) || math.IsNaN(f.Pos.Y) {
		r.dropped++
		return false
	}
	if len(r.fixes) == 0 {
		r.fixes = append(r.fixes, f)
		return true
	}
	last := r.fixes[len(r.fixes)-1]
	if f.T <= last.T {
		r.dropped++
		return false
	}
	d := f.Pos.Dist(last.Pos)
	if d < minDistance {
		r.dropped++
		return false
	}
	if d/(f.T-last.T) > maxSpeed {
		r.dropped++
		return false
	}
	r.fixes = append(r.fixes, f)
	return true
}

// Dropped returns how many fixes were filtered out.
func (r *Recorder) Dropped() int { return r.dropped }

// Len returns how many fixes were kept so far.
func (r *Recorder) Len() int { return len(r.fixes) }

// Finish returns the recorded route. At least two fixes are required.
func (r *Recorder) Finish() (*Route, error) {
	if len(r.fixes) < 2 {
		return nil, fmt.Errorf("route: %d fixes recorded, need at least 2", len(r.fixes))
	}
	fixes := make([]Fix, len(r.fixes))
	copy(fixes, r.fixes)
	return &Route{fixes: fixes}, nil
}

// Route is a finished recording.
type Route struct {
	fixes []Fix
}

// Fixes returns a copy of the recorded fixes.
func (rt *Route) Fixes() []Fix {
	cp := make([]Fix, len(rt.fixes))
	copy(cp, rt.fixes)
	return cp
}

// Len returns the number of fixes.
func (rt *Route) Len() int { return len(rt.fixes) }

// Duration returns the elapsed stream time from first to last fix.
func (rt *Route) Duration() float64 {
	return rt.fixes[len(rt.fixes)-1].T - rt.fixes[0].T
}

// Length returns the traveled distance in meters.
func (rt *Route) Length() float64 {
	var total float64
	for i := 1; i < len(rt.fixes); i++ {
		total += rt.fixes[i].Pos.Dist(rt.fixes[i-1].Pos)
	}
	return total
}

// Polyline returns the route's geometry for map display.
func (rt *Route) Polyline() (*geo.Polyline, error) {
	pts := make([]geo.Point, len(rt.fixes))
	for i, f := range rt.fixes {
		pts[i] = f.Pos
	}
	return geo.NewPolyline(pts)
}

// Oracle interpolates pollution at a position and time — the phone's
// model cache or a server engine.
type Oracle func(t, x, y float64) (float64, error)

// PointReading is one route fix with its pollution value and display
// band (the colored marker of the app's map view).
type PointReading struct {
	Fix   Fix
	Value float64
	Band  eval.CO2Band
}

// Summary is what the app shows after a recording: per-point readings,
// the route average, and the OSHA guidance text.
type Summary struct {
	Points  []PointReading
	Average float64
	Band    eval.CO2Band
	Advice  string
	// Worst is the index of the highest-value point (the reddest marker).
	Worst int
}

// Summarize evaluates the route against an oracle of pollutant pol,
// banding every value on pol's scale.
func Summarize(rt *Route, pol tuple.Pollutant, oracle Oracle) (*Summary, error) {
	if rt == nil || len(rt.fixes) == 0 {
		return nil, errors.New("route: empty route")
	}
	if oracle == nil {
		return nil, errors.New("route: nil oracle")
	}
	s := &Summary{Points: make([]PointReading, 0, len(rt.fixes))}
	var sum float64
	worstVal := math.Inf(-1)
	for i, f := range rt.fixes {
		v, err := oracle(f.T, f.Pos.X, f.Pos.Y)
		if err != nil {
			return nil, fmt.Errorf("route: point %d: %w", i, err)
		}
		s.Points = append(s.Points, PointReading{
			Fix:   f,
			Value: v,
			Band:  eval.ClassifyPollutant(pol, v),
		})
		sum += v
		if v > worstVal {
			worstVal, s.Worst = v, i
		}
	}
	s.Average = sum / float64(len(s.Points))
	s.Band = eval.ClassifyPollutant(pol, s.Average)
	s.Advice = s.Band.Advice()
	return s, nil
}
