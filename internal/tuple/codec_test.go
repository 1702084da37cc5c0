package tuple

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func randomBatch(rng *rand.Rand, n int) Batch {
	b := make(Batch, n)
	for i := range b {
		b[i] = Raw{
			T: rng.Float64() * 1e6,
			X: (rng.Float64() - 0.5) * 1e4,
			Y: (rng.Float64() - 0.5) * 1e4,
			S: 350 + rng.Float64()*1000,
		}
	}
	return b
}

func TestCSVRoundTrip(t *testing.T) {
	b := randomBatch(rand.New(rand.NewSource(3)), 50)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(b) {
		t.Fatalf("got %d tuples, want %d", len(got), len(b))
	}
	for i := range got {
		if got[i] != b[i] {
			t.Fatalf("tuple %d differs: %v vs %v", i, got[i], b[i])
		}
	}
}

func TestCSVErrors(t *testing.T) {
	tests := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"bad header", "a,b,c,d\n1,2,3,4\n"},
		{"short row", "t,x,y,s\n1,2,3\n"},
		{"long row", "t,x,y,s\n1,2,3,4,5\n"},
		{"non numeric", "t,x,y,s\n1,2,zzz,4\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReadCSV(strings.NewReader(tt.in)); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestCSVSkipsBlankLines(t *testing.T) {
	in := "t,x,y,s\n1,2,3,4\n\n5,6,7,8\n"
	got, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d tuples, want 2", len(got))
	}
}
