package colblock

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tuple"
)

// requirePackRoundTrip packs b and requires the run to unpack bit-equal
// to it.
func requirePackRoundTrip(t *testing.T, b []tuple.Raw) []byte {
	t.Helper()
	run := Pack(nil, b)
	out := make([]tuple.Raw, len(b))
	if err := Unpack(out, run); err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	if !bitEqualBatches(out, b) {
		t.Fatalf("unpacked %v, packed %v", out, b)
	}
	return run
}

// TestPackRoundTrip: a packed run keeps its tuples' order and every bit
// of every value — negative zero, subnormals, NaN payloads, infinities,
// values only IEEE bits hold — and appends to what dst already holds.
func TestPackRoundTrip(t *testing.T) {
	requirePackRoundTrip(t, nil)
	requirePackRoundTrip(t, edgeWindow)
	requirePackRoundTrip(t, []tuple.Raw{
		{T: math.NaN(), X: math.Inf(1), Y: math.Copysign(0, -1), S: 5e-324},
		{T: -0x1p62, X: 0, Y: 5, S: 1},
		{T: 0x1p62, X: 0x1p-511, Y: 5, S: 2},
		{T: 0, X: 0x1p513, Y: -math.MaxFloat64, S: math.Float64frombits(0xfff0000000000abc)},
	})
	ws := lausanneWindows()
	requirePackRoundTrip(t, ws[8].Tuples)

	prefix := []byte("prefix")
	run := Pack(append([]byte(nil), prefix...), edgeWindow)
	if string(run[:len(prefix)]) != string(prefix) {
		t.Fatalf("Pack overwrote dst's contents: %q", run[:len(prefix)])
	}
	if want := Pack(nil, edgeWindow); string(run[len(prefix):]) != string(want) {
		t.Fatal("a run appended to dst differs from the same run packed alone")
	}
}

// TestPackExact: PackExact is the prefix's zero bytes and then Pack's run,
// in an array of exactly that size, and no run is longer than
// MaxPackedLen — which random bit patterns, which no column packs, reach.
func TestPackExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	random := make([]tuple.Raw, 300)
	for i := range random {
		random[i] = tuple.Raw{T: math.Float64frombits(rng.Uint64()), X: math.Float64frombits(rng.Uint64()),
			Y: math.Float64frombits(rng.Uint64()), S: math.Float64frombits(rng.Uint64())}
	}
	for _, b := range [][]tuple.Raw{nil, edgeWindow, lausanneWindows()[8].Tuples, random} {
		run := Pack(nil, b)
		got := PackExact(7, b)
		if cap(got) != len(got) || string(got[:7]) != string(make([]byte, 7)) || string(got[7:]) != string(run) {
			t.Errorf("PackExact(7) of %d tuples = %d bytes in %d, want 7 zeros and the %d-byte run", len(b), len(got), cap(got), len(run))
		}
		if len(run) > MaxPackedLen(len(b)) {
			t.Errorf("a run of %d tuples takes %d bytes, over MaxPackedLen %d", len(b), len(run), MaxPackedLen(len(b)))
		}
	}
	if got, worst := len(Pack(nil, random)), MaxPackedLen(len(random)); got < worst-8 {
		t.Errorf("random bits pack to %d bytes, far under the worst case %d it is meant to reach", got, worst)
	}
}

// TestUnpackRejectsBadRuns: a wrong destination length, a truncated run
// and trailing bytes are errors, never a panic or a short decode.
func TestUnpackRejectsBadRuns(t *testing.T) {
	run := Pack(nil, lausanneWindows()[3].Tuples[:100])
	dst := make([]tuple.Raw, 100)
	if err := Unpack(dst[:99], run); err == nil {
		t.Error("Unpack into a destination one tuple short succeeded")
	}
	for _, cut := range []int{0, 3, 4, 10, len(run) / 2, len(run) - 1} {
		if err := Unpack(dst, run[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Errorf("Unpack of the run cut at %d of %d bytes: %v, want ErrCorrupt", cut, len(run), err)
		}
	}
	if err := Unpack(dst, append(run[:len(run):len(run)], 0)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Unpack of the run with a trailing byte: %v, want ErrCorrupt", err)
	}
	if err := Unpack(nil, []byte{0, 0, 0, 0, 1}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Unpack of an empty run with a trailing byte: %v, want ErrCorrupt", err)
	}
}

// TestPackUnpackAllocateNothing: with dst's room already there, packing
// and unpacking a full replication-log chunk allocate nothing.
func TestPackUnpackAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scratch under -race")
	}
	b := lausanneWindows()[8].Tuples[:1024]
	buf := Pack(nil, b)
	out := make([]tuple.Raw, len(b))
	if got := testing.AllocsPerRun(50, func() { buf = Pack(buf[:0], b) }); got != 0 {
		t.Errorf("Pack into a buffer with room = %v allocs, want 0", got)
	}
	if got := testing.AllocsPerRun(50, func() {
		if err := Unpack(out, buf); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("Unpack = %v allocs, want 0", got)
	}
}

// TestPackedBytesPerTupleLausanne packs the benchmark fleet's day as a
// replication log holds it — in time order, 1 024 tuples a run — and
// holds it under 23 bytes a tuple (tuple.Raw is 32; it read 22.36 when
// written). The log says where the bytes go, column by column.
func TestPackedBytesPerTupleLausanne(t *testing.T) {
	var stream tuple.Batch
	for _, w := range lausanneWindows() {
		stream = append(stream, w.Tuples...)
	}
	stream.SortByTime()
	const chunk = 1024
	var total int
	var colBytes [4]int
	for lo := 0; lo+chunk <= len(stream); lo += chunk {
		run := Pack(nil, stream[lo:lo+chunk])
		total += len(run)
		p := run[4:]
		for i := range colBytes {
			_, rest, err := cutColumn(p, chunk)
			if err != nil {
				t.Fatal(err)
			}
			colBytes[i] += len(p) - len(rest)
			p = rest
		}
	}
	n := float64(len(stream) / chunk * chunk)
	perTuple := float64(total) / n
	t.Logf("%.0f tuples in %d-tuple runs: %.3f B/tuple; per column T %.2f X %.2f Y %.2f S %.2f",
		n, chunk, perTuple, float64(colBytes[0])/n, float64(colBytes[1])/n, float64(colBytes[2])/n, float64(colBytes[3])/n)
	if perTuple > 23.0 {
		t.Errorf("the benchmark fleet's stream packs to %.3f bytes a tuple, want ≤ 23.0", perTuple)
	}
}

// BenchmarkPackChunk and BenchmarkUnpackChunk are a log's seal of one
// full chunk, 1 024 of the benchmark fleet's tuples (fitted to its size
// class, into the bytes of the chunk sealed before, handed back), and its
// read of them.
func BenchmarkPackChunk(b *testing.B) {
	chunk := lausanneWindows()[8].Tuples[:1024]
	b.SetBytes(int64(len(chunk)) * 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		run, _ := packChunk(chunk, true)
		handBack(run)
	}
}

func BenchmarkUnpackChunk(b *testing.B) {
	chunk := lausanneWindows()[8].Tuples[:1024]
	run := Pack(nil, chunk)
	out := make([]tuple.Raw, len(chunk))
	b.SetBytes(int64(len(chunk)) * 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := Unpack(out, run); err != nil {
			b.Fatal(err)
		}
	}
}
