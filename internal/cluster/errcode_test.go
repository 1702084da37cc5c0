package cluster

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/ingest"
	"repro/internal/wire"
)

// TestWireCodeTable checks the table's own invariants: ascending,
// gap-free codes from 2 through the last one wire defines (so a code
// added there without a row here fails), distinct sentinels, and a round
// trip through both directions for every row.
func TestWireCodeTable(t *testing.T) {
	if got, want := len(wireCodes), int(wire.CodeReplicaMiss)-1; got != want {
		t.Fatalf("%d rows for codes 2..%d", got, wire.CodeReplicaMiss)
	}
	for i, row := range wireCodes {
		if row.code != wire.ErrCode(i+2) {
			t.Errorf("row %d holds code %d, want %d (ascending, no gaps; 0 and 1 never travel)", i, row.code, i+2)
		}
		wrapped := fmt.Errorf("layer: %w", row.err)
		if got := CodeOf(wrapped); got != row.code {
			t.Errorf("CodeOf(%v) = %d, want %d", wrapped, got, row.code)
		}
		back := ErrorFromWire(row.code, "peer text")
		if !errors.Is(back, row.err) || back.Error() != "peer text" {
			t.Errorf("ErrorFromWire(%d) = %v, want %v printing the peer's text", row.code, back, row.err)
		}
		for j, other := range wireCodes {
			if i != j && errors.Is(back, other.err) {
				t.Errorf("code %d also matches row %d's sentinel", row.code, j)
			}
		}
	}
	// Untyped stays untyped, in both directions; an unknown code (a newer
	// peer's) degrades to untyped instead of failing.
	if CodeOf(errors.New("plain")) != wire.CodeNone {
		t.Error("plain error got a code")
	}
	for _, code := range []wire.ErrCode{wire.CodeNone, 1, 200} {
		if err := ErrorFromWire(code, "m"); CodeOf(err) != wire.CodeNone || err.Error() != "m" {
			t.Errorf("ErrorFromWire(%d) = %v, want a plain error", code, err)
		}
	}
	// A partial ingest whose chain also holds the retryable failure that
	// caused it must encode as partial: retrying would duplicate.
	partial := fmt.Errorf("%w: %w", ErrPartialIngest, ingest.ErrSaturated)
	if CodeOf(partial) != wire.CodePartialIngest {
		t.Errorf("CodeOf(%v) = %d, want partial-ingest", partial, CodeOf(partial))
	}
}
