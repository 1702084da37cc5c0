package tuple

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geo"
)

func TestPollutantStringAndUnit(t *testing.T) {
	tests := []struct {
		p    Pollutant
		s    string
		unit string
	}{
		{CO2, "CO2", "ppm"},
		{CO, "CO", "ppm"},
		{PM, "PM", "µg/m³"},
	}
	for _, tt := range tests {
		if got := tt.p.String(); got != tt.s {
			t.Errorf("String(%d) = %q, want %q", tt.p, got, tt.s)
		}
		if got := tt.p.Unit(); got != tt.unit {
			t.Errorf("Unit(%d) = %q, want %q", tt.p, got, tt.unit)
		}
		if !tt.p.Valid() {
			t.Errorf("%v should be valid", tt.p)
		}
	}
	bad := Pollutant(99)
	if bad.Valid() {
		t.Error("Pollutant(99) should be invalid")
	}
	if bad.String() != "Pollutant(99)" {
		t.Errorf("bad String = %q", bad.String())
	}
}

func TestPollutantNormalRange(t *testing.T) {
	for _, p := range []Pollutant{CO2, CO, PM} {
		lo, hi := p.NormalRange()
		if lo >= hi {
			t.Errorf("%v: normal range [%v,%v] inverted", p, lo, hi)
		}
	}
	lo, hi := CO2.NormalRange()
	if lo != 350 || hi != 5000 {
		t.Errorf("CO2 range = [%v,%v], want [350,5000]", lo, hi)
	}
}

func TestRawValidate(t *testing.T) {
	tests := []struct {
		name string
		r    Raw
		ok   bool
	}{
		{"good", Raw{T: 1, X: 2, Y: 3, S: 4}, true},
		{"zero", Raw{}, true},
		{"nan t", Raw{T: math.NaN()}, false},
		{"nan s", Raw{S: math.NaN()}, false},
		{"inf x", Raw{X: math.Inf(1)}, false},
		{"neg inf y", Raw{Y: math.Inf(-1)}, false},
		{"negative time", Raw{T: -1}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.r.Validate()
			if (err == nil) != tt.ok {
				t.Errorf("Validate() = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestBatchValidateReportsIndex(t *testing.T) {
	b := Batch{{T: 1}, {T: math.NaN()}}
	err := b.Validate()
	if err == nil {
		t.Fatal("expected error")
	}
	if got := err.Error(); got == "" || got[:7] != "tuple 1" {
		t.Errorf("error should name tuple 1, got %q", got)
	}
}

// TestSortByTimeStableWithoutAllocating: ties keep their arrival order
// (the store's windows rely on it), and the sort every Store.Window pays
// allocates nothing.
func TestSortByTimeStableWithoutAllocating(t *testing.T) {
	b := make(Batch, 200)
	for i := range b {
		b[i] = Raw{T: float64((i * 7) % 10), S: float64(i)}
	}
	b.SortByTime()
	for i := 1; i < len(b); i++ {
		if b[i-1].T > b[i].T || (b[i-1].T == b[i].T && b[i-1].S > b[i].S) {
			t.Fatalf("order broken at %d: %+v then %+v", i, b[i-1], b[i])
		}
	}
	if allocs := testing.AllocsPerRun(20, b.SortByTime); allocs != 0 {
		t.Errorf("SortByTime = %v allocs, want 0", allocs)
	}
}

func TestBatchSortAndSpan(t *testing.T) {
	b := Batch{{T: 5}, {T: 1}, {T: 3}}
	if b.SortedByTime() {
		t.Error("batch should not be sorted yet")
	}
	b.SortByTime()
	if !b.SortedByTime() {
		t.Error("batch should be sorted")
	}
	min, max, ok := b.TimeSpan()
	if !ok || min != 1 || max != 5 {
		t.Errorf("TimeSpan = (%v,%v,%v), want (1,5,true)", min, max, ok)
	}
	var empty Batch
	if _, _, ok := empty.TimeSpan(); ok {
		t.Error("empty TimeSpan should report ok=false")
	}
}

func TestBatchBoundsAndExtracts(t *testing.T) {
	b := Batch{
		{T: 0, X: 1, Y: 2, S: 10},
		{T: 1, X: -3, Y: 5, S: 20},
		{T: 2, X: 2, Y: 0, S: 30},
	}
	r, ok := b.Bounds()
	if !ok {
		t.Fatal("Bounds ok=false")
	}
	want := geo.Rect{Min: geo.Point{X: -3, Y: 0}, Max: geo.Point{X: 2, Y: 5}}
	if r != want {
		t.Errorf("Bounds = %v, want %v", r, want)
	}
	if got := b.Positions(); len(got) != 3 || got[1] != (geo.Point{X: -3, Y: 5}) {
		t.Errorf("Positions = %v", got)
	}
	if got := b.Values(); len(got) != 3 || got[2] != 30 {
		t.Errorf("Values = %v", got)
	}
	mean, ok := b.MeanValue()
	if !ok || mean != 20 {
		t.Errorf("MeanValue = (%v,%v), want (20,true)", mean, ok)
	}
	var empty Batch
	if _, ok := empty.Bounds(); ok {
		t.Error("empty Bounds should report ok=false")
	}
	if _, ok := empty.MeanValue(); ok {
		t.Error("empty MeanValue should report ok=false")
	}
}

// TestBatchBoundsMatchesFold: Bounds' plain comparisons give the box that
// folding geo.Rect.ExpandToPoint over the batch gives, bit for bit, also
// over zeros of either sign, infinities and NaNs.
func TestBatchBoundsMatchesFold(t *testing.T) {
	special := [...]float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 5e-324}
	rng := rand.New(rand.NewSource(1))
	val := func() float64 {
		if k := rng.Intn(3 * len(special)); k < len(special) {
			return special[k]
		}
		return float64(rng.Intn(9) - 4)
	}
	same := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y) || math.IsNaN(x) && math.IsNaN(y)
	}
	for i := range 5000 {
		b := make(Batch, 1+rng.Intn(6))
		for j := range b {
			b[j] = Raw{X: val(), Y: val()}
		}
		want := geo.Rect{Min: b[0].Pos(), Max: b[0].Pos()}
		for _, r := range b[1:] {
			want = want.ExpandToPoint(r.Pos())
		}
		got, _ := b.Bounds()
		if !same(got.Min.X, want.Min.X) || !same(got.Min.Y, want.Min.Y) || !same(got.Max.X, want.Max.X) || !same(got.Max.Y, want.Max.Y) {
			t.Fatalf("batch %d %v: Bounds %+v, fold %+v", i, b, got, want)
		}
	}
}

func TestBatchClone(t *testing.T) {
	b := Batch{{T: 1, S: 2}}
	c := b.Clone()
	c[0].S = 99
	if b[0].S != 2 {
		t.Error("Clone must deep-copy")
	}
}

func TestFilterRadius(t *testing.T) {
	b := Batch{
		{X: 0, Y: 0, S: 1},
		{X: 3, Y: 4, S: 2},  // dist 5
		{X: 10, Y: 0, S: 3}, // dist 10
	}
	got := b.FilterRadius(geo.Point{}, 5)
	if len(got) != 2 {
		t.Fatalf("FilterRadius(5) returned %d tuples, want 2 (boundary inclusive)", len(got))
	}
	got = b.FilterRadius(geo.Point{}, 4.99)
	if len(got) != 1 {
		t.Fatalf("FilterRadius(4.99) returned %d tuples, want 1", len(got))
	}
	got = b.FilterRadius(geo.Point{X: 100, Y: 100}, 1)
	if len(got) != 0 {
		t.Fatalf("far FilterRadius returned %d tuples, want 0", len(got))
	}
}

func TestWindowIndexAndBounds(t *testing.T) {
	tests := []struct {
		t, h float64
		want int
	}{
		{0, 100, 0},
		{99.999, 100, 0},
		{100, 100, 1},
		{250, 100, 2},
	}
	for _, tt := range tests {
		if got := WindowIndex(tt.t, tt.h); got != tt.want {
			t.Errorf("WindowIndex(%v,%v) = %d, want %d", tt.t, tt.h, got, tt.want)
		}
	}
	start, end := WindowBounds(3, 50)
	if start != 150 || end != 200 {
		t.Errorf("WindowBounds(3,50) = (%v,%v), want (150,200)", start, end)
	}
}

func TestWindowIndexConsistentWithBounds(t *testing.T) {
	f := func(tv, hv float64) bool {
		tt := math.Abs(math.Mod(tv, 1e9))
		h := 1 + math.Abs(math.Mod(hv, 1e5))
		c := WindowIndex(tt, h)
		start, end := WindowBounds(c, h)
		return tt >= start-1e-6 && tt < end+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
