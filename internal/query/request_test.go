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
