package query

import (
	"errors"
	"math"
	"testing"

	"repro/internal/tuple"
)

func TestRequestValidateTaxonomy(t *testing.T) {
	cases := []struct {
		name string
		req  Request
		want error // errors.Is target; nil means valid
		bad  bool
	}{
		{name: "zero is CO2 and valid", req: Request{}},
		{name: "negative t", req: Request{T: -0.5}, want: ErrOutOfWindow, bad: true},
		{name: "bad pollutant", req: Request{Pollutant: tuple.Pollutant(200)}, want: ErrUnknownPollutant, bad: true},
		{name: "nan x", req: Request{X: math.NaN()}, bad: true},
		{name: "inf y", req: Request{Y: math.Inf(-1)}, bad: true},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.req.Validate()
			if tt.bad != (err != nil) {
				t.Fatalf("Validate() = %v, bad = %v", err, tt.bad)
			}
			if tt.want != nil && !errors.Is(err, tt.want) {
				t.Errorf("errors.Is(%v, %v) = false", err, tt.want)
			}
		})
	}
}

func TestParseKind(t *testing.T) {
	cases := []struct {
		in   string
		want Kind
		bad  bool
	}{
		{"", KindCover, false},
		{"cover", KindCover, false},
		{"naive", KindNaive, false},
		{"rtree", KindRTree, false},
		{"r-tree", KindRTree, false},
		{"vptree", KindVPTree, false},
		{"vp-tree", KindVPTree, false},
		{"quantum", "", true},
	}
	for _, tt := range cases {
		got, err := ParseKind(tt.in)
		if tt.bad != (err != nil) {
			t.Errorf("ParseKind(%q) err = %v", tt.in, err)
			continue
		}
		if !tt.bad && got != tt.want {
			t.Errorf("ParseKind(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestBuildProcessorKinds(t *testing.T) {
	w := tuple.Batch{
		{T: 1, X: 0, Y: 0, S: 400},
		{T: 2, X: 10, Y: 0, S: 420},
		{T: 3, X: 0, Y: 10, S: 440},
	}
	for _, kind := range []Kind{KindNaive, KindRTree, KindVPTree} {
		p, err := BuildProcessor(Options{Kind: kind, Radius: 100}, w, nil)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		v, err := p.Interpolate(Q{T: 2, X: 1, Y: 1})
		if err != nil {
			t.Fatalf("%v interpolate: %v", kind, err)
		}
		if math.Abs(v-420) > 1e-9 {
			t.Errorf("%v = %v, want mean 420", kind, v)
		}
	}
	// Cover kind requires a cover.
	if _, err := BuildProcessor(Options{Kind: KindCover}, w, nil); err == nil {
		t.Error("cover kind without a cover should error")
	}
	if _, err := BuildProcessor(Options{Kind: "bogus"}, w, nil); err == nil {
		t.Error("bogus kind should error")
	}
}

func TestOptionsWithDefaults(t *testing.T) {
	o := Options{}.WithDefaults()
	if o.Kind != KindCover || o.Radius != DefaultRadius {
		t.Errorf("defaults = %+v", o)
	}
	o = Options{Kind: KindNaive, Radius: 10}.WithDefaults()
	if o.Kind != KindNaive || o.Radius != 10 {
		t.Errorf("explicit options clobbered: %+v", o)
	}
}
