package route

import (
	"errors"
	"math"
	"testing"

	"repro/internal/eval"
	"repro/internal/geo"
	"repro/internal/tuple"
)

func TestRecorderFiltering(t *testing.T) {
	r := NewRecorder(RecorderConfig{MinDistance: 10, MaxSpeed: 50})

	if !r.Add(Fix{T: 0, Pos: geo.Point{X: 0, Y: 0}}) {
		t.Error("first fix must be kept")
	}
	// Too close: jitter while standing.
	if r.Add(Fix{T: 10, Pos: geo.Point{X: 3, Y: 0}}) {
		t.Error("sub-MinDistance fix should be dropped")
	}
	// Normal movement.
	if !r.Add(Fix{T: 20, Pos: geo.Point{X: 100, Y: 0}}) {
		t.Error("normal fix should be kept")
	}
	// Implausible teleport: 10 km in 1 s.
	if r.Add(Fix{T: 21, Pos: geo.Point{X: 10100, Y: 0}}) {
		t.Error("over-MaxSpeed fix should be dropped")
	}
	// Out of order.
	if r.Add(Fix{T: 15, Pos: geo.Point{X: 200, Y: 0}}) {
		t.Error("out-of-order fix should be dropped")
	}
	// NaN.
	if r.Add(Fix{T: 30, Pos: geo.Point{X: math.NaN(), Y: 0}}) {
		t.Error("NaN fix should be dropped")
	}
	if r.Len() != 2 || r.Dropped() != 4 {
		t.Errorf("kept %d dropped %d, want 2/4", r.Len(), r.Dropped())
	}
}

func TestFinishRequiresTwoFixes(t *testing.T) {
	r := NewRecorder(RecorderConfig{})
	if _, err := r.Finish(); err == nil {
		t.Error("empty recording should not finish")
	}
	r.Add(Fix{T: 0, Pos: geo.Point{X: 0, Y: 0}})
	if _, err := r.Finish(); err == nil {
		t.Error("single-fix recording should not finish")
	}
	r.Add(Fix{T: 60, Pos: geo.Point{X: 100, Y: 0}})
	rt, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if rt.Len() != 2 {
		t.Errorf("Len = %d", rt.Len())
	}
}

func recorded(t *testing.T) *Route {
	t.Helper()
	r := NewRecorder(RecorderConfig{})
	fixes := []Fix{
		{T: 0, Pos: geo.Point{X: 0, Y: 0}},
		{T: 60, Pos: geo.Point{X: 300, Y: 0}},
		{T: 120, Pos: geo.Point{X: 300, Y: 400}},
		{T: 180, Pos: geo.Point{X: 600, Y: 400}},
	}
	for _, f := range fixes {
		if !r.Add(f) {
			t.Fatalf("fix %+v dropped", f)
		}
	}
	rt, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestRouteGeometry(t *testing.T) {
	rt := recorded(t)
	if got := rt.Length(); got != 1000 {
		t.Errorf("Length = %v, want 1000", got)
	}
	if got := rt.Duration(); got != 180 {
		t.Errorf("Duration = %v, want 180", got)
	}
	pl, err := rt.Polyline()
	if err != nil {
		t.Fatal(err)
	}
	if pl.Length() != 1000 {
		t.Errorf("polyline length = %v", pl.Length())
	}
	// Fixes returns a defensive copy.
	fs := rt.Fixes()
	fs[0].T = 999
	if rt.Fixes()[0].T != 0 {
		t.Error("Fixes must return a copy")
	}
}

func TestSummarize(t *testing.T) {
	rt := recorded(t)
	// Oracle: pollution grows to the east; one hazardous spot at the last
	// point.
	oracle := func(tm, x, y float64) (float64, error) {
		if x == 600 {
			return 6000, nil
		}
		return 400 + x, nil
	}
	s, err := Summarize(rt, tuple.CO2, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 4 {
		t.Fatalf("points = %d", len(s.Points))
	}
	wantAvg := (400 + 700 + 700 + 6000) / 4.0
	if math.Abs(s.Average-wantAvg) > 1e-9 {
		t.Errorf("Average = %v, want %v", s.Average, wantAvg)
	}
	if s.Worst != 3 {
		t.Errorf("Worst = %d, want 3", s.Worst)
	}
	if s.Points[3].Band != eval.BandHazardous {
		t.Errorf("worst band = %v", s.Points[3].Band)
	}
	if s.Points[0].Band != eval.BandFresh {
		t.Errorf("first band = %v", s.Points[0].Band)
	}
	if s.Advice == "" {
		t.Error("missing advice")
	}
}

func TestSummarizeErrors(t *testing.T) {
	rt := recorded(t)
	if _, err := Summarize(nil, tuple.CO2, func(t, x, y float64) (float64, error) { return 0, nil }); err == nil {
		t.Error("nil route should error")
	}
	if _, err := Summarize(rt, tuple.CO2, nil); err == nil {
		t.Error("nil oracle should error")
	}
	boom := errors.New("no cover")
	if _, err := Summarize(rt, tuple.CO2, func(t, x, y float64) (float64, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Errorf("oracle error not propagated: %v", err)
	}
}
