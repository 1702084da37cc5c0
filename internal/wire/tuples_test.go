package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/colblock"
	"repro/internal/geo"
	"repro/internal/sim"
	"repro/internal/tuple"
)

// fleetStream is a day of the end-to-end benchmark's own fleet in the
// order it is generated: sim.DefaultLausanne(1), lines 0 and 2 served by
// 16 buses sampling every 30 s (benchmark/gen.go's fleet). The benchmark's
// gateway uploads consecutive 256-tuple slices of it.
var fleetStream = sync.OnceValue(func() []tuple.Raw {
	cfg := sim.DefaultLausanne(1)
	lines := []*geo.Polyline{cfg.Vehicles[0].Route, cfg.Vehicles[2].Route}
	rng := rand.New(rand.NewSource(1))
	vs := make([]sim.Vehicle, 16)
	for i := range vs {
		line := lines[i%len(lines)]
		vs[i] = sim.Vehicle{Route: line, SpeedMPS: 6 + 2*rng.Float64(), StartOffset: line.Length() * rng.Float64()}
	}
	cfg.Vehicles = vs
	cfg.SamplingInterval = 30
	cfg.Duration = 86400
	data, err := sim.Generate(cfg)
	if err != nil {
		panic(err)
	}
	return data
})

// tupleFrames wraps tuples in each frame that carries them, beside the
// size of the frame's fixed fields.
func tupleFrames(tuples []tuple.Raw) []struct {
	m     Message
	fixed int
} {
	return []struct {
		m     Message
		fixed int
	}{
		{IngestRequest{Pollutant: tuple.PM, Tuples: tuples}, 2},
		{ReplicaIngest{Origin: 2, Pollutant: tuple.CO2, Seq: 1 << 40, Tuples: tuples, Incarnation: 9}, 20},
		{ReplicaCatchupResponse{Snapshot: true, From: 77, Tuples: tuples, Incarnation: 9}, 18},
	}
}

// framedTuples returns the tuples a tuple frame carries.
func framedTuples(m Message) []tuple.Raw {
	switch v := m.(type) {
	case IngestRequest:
		return v.Tuples
	case ReplicaIngest:
		return v.Tuples
	case ReplicaCatchupResponse:
		return v.Tuples
	}
	return nil
}

// requireSameTuples fails unless got holds want's tuples bit for bit.
func requireSameTuples(t *testing.T, how string, got, want []tuple.Raw) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d tuples, sent %d", how, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		for j, pair := range [4][2]float64{{g.T, w.T}, {g.X, w.X}, {g.Y, w.Y}, {g.S, w.S}} {
			if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
				t.Fatalf("%s: tuple %d field %d is %#x, sent %#x", how, i, j, math.Float64bits(pair[0]), math.Float64bits(pair[1]))
			}
		}
	}
}

// TestPackedUploadBytesPerTupleLausanne: the benchmark fleet's 256-tuple
// uploads take at most 23 B a tuple on the wire, where raw tuples took
// 32.02, and each comes back bit for bit. It logs the frame of a 1-, 16-,
// 86- (the mean owner slice a 3-node ring forwards) and 256-tuple slice.
func TestPackedUploadBytesPerTupleLausanne(t *testing.T) {
	stream := fleetStream()
	var frames, bytesTotal int
	for lo := 0; lo+256 <= len(stream); lo += 256 {
		m := IngestRequest{Pollutant: tuple.CO2, Tuples: stream[lo : lo+256]}
		enc, err := Binary.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := Binary.Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		requireSameTuples(t, fmt.Sprintf("upload %d", frames), dec.(IngestRequest).Tuples, m.Tuples)
		frames++
		bytesTotal += len(enc)
	}
	perTuple := float64(bytesTotal) / float64(256*frames)
	var sizes []string
	for _, n := range []int{1, 16, 86, 256} {
		enc, err := Binary.Encode(IngestRequest{Pollutant: tuple.CO2, Tuples: stream[1000 : 1000+n]})
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, fmt.Sprintf("%d tuples %d B (raw %d B)", n, len(enc), 6+32*n))
	}
	t.Logf("%d uploads of 256 tuples: %.2f B/tuple (raw 32.02); %v", frames, perTuple, sizes)
	if perTuple > 23 {
		t.Errorf("the fleet's 256-tuple uploads take %.2f B a tuple on the wire, want ≤ 23", perTuple)
	}
}

// TestPackedUploadAllocs pins what the packed codec costs a 256-tuple
// upload: Encode allocates the frame alone, exactly sized; AppendEncode
// into a buffer with room allocates nothing; and a warm DecodeLent
// nothing at all — the tuples are unpacked into lent memory, and the
// message comes back in the box the lent tuples were recycled in.
func TestPackedUploadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	var m Message = IngestRequest{Pollutant: tuple.CO2, Tuples: fleetStream()[256:512]}
	frame, err := Binary.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	if cap(frame) != len(frame) {
		t.Errorf("Encode returned %d bytes in a %d-byte array", len(frame), cap(frame))
	}
	if allocs := testing.AllocsPerRun(100, func() { _, err = Binary.Encode(m) }); allocs != 1 || err != nil {
		t.Errorf("Encode of a 256-tuple upload = %v allocs (%v), want 1", allocs, err)
	}
	buf := make([]byte, 0, 64<<10)
	if allocs := testing.AllocsPerRun(100, func() { buf, err = Binary.AppendEncode(buf[:0], m) }); allocs != 0 || err != nil {
		t.Errorf("AppendEncode of a 256-tuple upload into a buffer with room = %v allocs (%v), want 0", allocs, err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		dec, err := Binary.DecodeLent(frame)
		if err != nil {
			t.Fatal(err)
		}
		Recycle(dec, IngestResponse{})
	}); allocs != 0 {
		t.Errorf("DecodeLent of a 256-tuple upload = %v allocs, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		tuples, box, err := decodeRun(frame[2:], "IngestRequest", true)
		if err != nil {
			t.Fatal(err)
		}
		raws.take(tuples, box)
	}); allocs != 0 {
		t.Errorf("unpacking a 256-tuple upload into lent tuples = %v allocs, want 0", allocs)
	}
}

// TestTupleRunBounds: a run that declares more than MaxFrameTuples tuples
// is refused with ErrMalformed by Decode and DecodeLent before anything is
// allocated or lent — a run of width-0 columns declares any count in 52
// bytes — and a run whose columns do not decode gives its lent tuples
// back. The encoder refuses more than MaxFrameTuples tuples.
func TestTupleRunBounds(t *testing.T) {
	if _, err := Binary.Encode(IngestRequest{Tuples: make([]tuple.Raw, MaxFrameTuples+1)}); err == nil {
		t.Errorf("an upload of %d tuples encoded", MaxFrameTuples+1)
	}
	for _, c := range tupleFrames([]tuple.Raw{{T: 1, X: 2, Y: 3, S: 4}}) {
		frame, err := Binary.Encode(c.m)
		if err != nil {
			t.Fatal(err)
		}
		for _, count := range []uint32{MaxFrameTuples + 1, math.MaxUint32} {
			claim := bytes.Clone(frame)
			binary.LittleEndian.PutUint32(claim[c.fixed:], count)
			for name, decode := range map[string]func([]byte) (Message, error){
				"Decode": Binary.Decode, "DecodeLent": Binary.DecodeLent,
			} {
				var err error
				allocs := testing.AllocsPerRun(20, func() { _, err = decode(claim) })
				if !errors.Is(err, ErrMalformed) {
					t.Errorf("%s of a %T claiming %d tuples: %v, want ErrMalformed", name, c.m, count, err)
				}
				// A lend of that many tuples would allocate: the pools keep
				// nothing near the size.
				if allocs != 0 && !raceEnabled {
					t.Errorf("%s refusing a %T claiming %d tuples allocated %.0f times", name, c.m, count, allocs)
				}
			}
		}
	}
	if raceEnabled {
		return // the pool check below needs the pools to keep what they are given
	}
	// One P: a slice given back to its pool is the next one lent.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	frame, err := Binary.Encode(IngestRequest{Pollutant: tuple.PM, Tuples: fleetStream()[:1000]})
	if err != nil {
		t.Fatal(err)
	}
	cut := frame[:len(frame)-1]
	known := LendTuples(1000)
	ReturnTuples(known)
	if _, err := Binary.DecodeLent(cut); !errors.Is(err, ErrMalformed) {
		t.Fatalf("DecodeLent of a cut run: %v, want ErrMalformed", err)
	}
	if next := LendTuples(1000); &next[0] != &known[0] {
		t.Error("a run refused after its tuples were lent kept them")
	} else {
		ReturnTuples(next)
	}
}

// FuzzTupleFramesRoundTrip reads the fuzz bytes as float64 bit patterns,
// four to a tuple: every tuple frame must encode within its fixed fields
// and the run's worst case, 52 + 32n bytes, and decode bit for bit — NaN
// payloads, -0, ±Inf and subnormals included — into fresh memory and into
// lent memory given back soiled, its frame a fixed point of
// decode/encode.
func FuzzTupleFramesRoundTrip(f *testing.F) {
	words := func(vs ...float64) []byte {
		b := make([]byte, 8*len(vs))
		for i, v := range vs {
			putF64(b[8*i:], v)
		}
		return b
	}
	f.Add(words(math.NaN(), math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		5e-324, math.Float64frombits(0x7ff8000000000abc), -math.MaxFloat64, 0x1p62))
	f.Add(words(3600, 1200.5, -800.25, 421.5, 3630, 1210.75, -790, 421.25, 3660, 1221, -781.5, 421))
	f.Add(words(1, 2, 3, 4))
	f.Add(words(0.1, 0.2, 0.3, 0.4, 1e9, 1e-9, 123456789.123, 0))
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	for lo := 0; lo < 3; lo++ {
		var b []byte
		for _, r := range fleetStream()[lo*16 : lo*16+16] {
			b = append(b, words(r.T, r.X, r.Y, r.S)...)
		}
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		tuples := make([]tuple.Raw, len(data)/32)
		for i := range tuples {
			w := data[32*i:]
			tuples[i] = tuple.Raw{T: getF64(w), X: getF64(w[8:]), Y: getF64(w[16:]), S: getF64(w[24:])}
		}
		for _, c := range tupleFrames(tuples) {
			enc, err := Binary.Encode(c.m)
			if err != nil {
				t.Fatal(err)
			}
			if worst := c.fixed + colblock.MaxPackedLen(len(tuples)); len(enc) > worst {
				t.Fatalf("%T of %d tuples: %d B, over the worst case %d", c.m, len(tuples), len(enc), worst)
			}
			same := func(got Message, how string) {
				t.Helper()
				if got.Type() != c.m.Type() {
					t.Fatalf("%s: decoded a %T from a %T", how, got, c.m)
				}
				requireSameTuples(t, fmt.Sprintf("%T %s", c.m, how), framedTuples(got), tuples)
				if re, err := Binary.Encode(got); err != nil || !bytes.Equal(re, enc) {
					t.Fatalf("%T %s: frame is not a fixed point of decode/encode (%v)", c.m, how, err)
				}
			}
			dec, err := Binary.Decode(enc)
			if err != nil {
				t.Fatal(err)
			}
			same(dec, "Decode")
			lent, err := Binary.DecodeLent(enc)
			if err != nil {
				t.Fatal(err)
			}
			same(lent, "DecodeLent")
			Recycle(lent, IngestResponse{})
			soil(lent)
			again, err := Binary.DecodeLent(enc)
			if err != nil {
				t.Fatal(err)
			}
			same(again, "DecodeLent into a soiled lend")
			Recycle(again, IngestResponse{})
		}
	})
}
