package wiretag_test

import (
	"testing"

	"repro/internal/analysis/analyzertest"
	"repro/internal/analysis/wiretag"
)

func TestWiretagGolden(t *testing.T) {
	diags := analyzertest.Run(t, wiretag.Analyzer, "testdata/src/wirefix")
	// One diagnostic per missing pairing, no more: the fixture plants
	// exactly four gaps.
	if len(diags) != 4 {
		t.Errorf("got %d diagnostics, want 4", len(diags))
	}
}
