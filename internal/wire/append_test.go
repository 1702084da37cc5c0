package wire

import (
	"bytes"
	"encoding/hex"
	"testing"

	"repro/internal/geo"
	"repro/internal/tuple"
)

// scribble overwrites b with a byte no golden frame is made of.
func scribble(b []byte) {
	for i := range b {
		b[i] = 0xA5
	}
}

// TestDecodeDoesNotAliasInput is the property connection buffers rest on:
// a decoded message owns its memory, so the frame it was read from can be
// overwritten by the next frame at once. Each golden frame is decoded, the
// frame scribbled over, and the message must still encode to the original
// — from Decode and from DecodeLent alike, whose lent memory goes back
// afterwards.
func TestDecodeDoesNotAliasInput(t *testing.T) {
	if len(goldenFrames) != 29 {
		t.Fatalf("%d golden frames, want the 29 the suite holds (31 captured, less the two retired unsubscribe frames)", len(goldenFrames))
	}
	for _, lend := range []bool{false, true} {
		for i, want := range goldenFrames {
			frame, err := hex.DecodeString(want)
			if err != nil {
				t.Fatal(err)
			}
			m, err := decode(frame, lend)
			if err != nil {
				t.Fatalf("frame %d (lent %v): %v", i, lend, err)
			}
			scribble(frame)
			got, err := Binary.Encode(m)
			if err != nil {
				t.Fatalf("frame %d (%T, lent %v): %v", i, m, lend, err)
			}
			if hex.EncodeToString(got) != want {
				t.Errorf("frame %d: %T (lent %v) changed when its input was overwritten:\n got %x\nwant %s", i, m, lend, got, want)
			}
			if lend {
				Recycle(m, nil)
			}
		}
	}
}

// TestAppendEncodeMatchesEncode: AppendEncode(dst, m) is dst followed by
// Encode(m), whatever dst's spare capacity held before — every encoder
// that leaves a flag byte at zero relies on the new bytes being cleared —
// and Encode allocates exactly the frame.
func TestAppendEncodeMatchesEncode(t *testing.T) {
	msgs := append(goldenMessages(),
		// The all-flags-clear variants the golden set does not hold.
		ReplicaCatchupResponse{From: 3},
		RingUpdate{Ring: RingResponse{Nodes: []string{"a:1"}, Cells: []geo.Point{{X: 1, Y: 2}}, VNodes: 8, Epoch: 3}},
		ErrorResponse{Msg: "saturated", Code: CodeSaturated},
		Forwarded{Inner: IngestRequest{Pollutant: tuple.CO, Tuples: []tuple.Raw{{T: 1, X: 2, Y: 3, S: 4}}}, Epoch: 9},
		ReplicaRead{Origin: 1, Inner: HeatmapRequest{T: 60, Cols: 2, Rows: 2}},
	)
	for _, m := range msgs {
		want, err := Binary.Encode(m)
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		if cap(want) != len(want) {
			t.Errorf("%T: Encode returned %d bytes in a %d-byte array", m, len(want), cap(want))
		}
		prefix := []byte("prefix")
		for name, dst := range map[string][]byte{
			"nil":   nil,
			"empty": {},
			"tight": append([]byte(nil), prefix...),
			"roomy": func() []byte {
				b := make([]byte, 4096)
				scribble(b)
				return append(b[:0], prefix...)
			}(),
		} {
			before := append([]byte(nil), dst...)
			got, err := Binary.AppendEncode(dst, m)
			if err != nil {
				t.Fatalf("%T into %s dst: %v", m, name, err)
			}
			if !bytes.Equal(got[:len(before)], before) || !bytes.Equal(got[len(before):], want) {
				t.Errorf("%T into %s dst:\n got %x\nwant %x%x", m, name, got, before, want)
			}
		}
	}

	// A message that cannot be encoded leaves dst as it came, also when the
	// failure is an inner message's.
	dst := []byte("kept")
	for _, m := range []Message{
		Forwarded{Inner: Forwarded{Inner: RingRequest{}}},
		Forwarded{Inner: HeatmapResponse{Cols: 2, Rows: 2}, Epoch: 1},
		ReplicaRead{Inner: nil},
		HeatmapResponse{Cols: 1, Rows: 1},
	} {
		got, err := Binary.AppendEncode(dst, m)
		if err == nil || string(got) != "kept" {
			t.Errorf("%T: AppendEncode = %q, %v; want the untouched dst and an error", m, got, err)
		}
	}
}

// TestAppendEncodeReusesItsBuffer: once the buffer has held a frame of
// the size, encoding into it allocates nothing — wrapped messages included:
// the wrapper's header is written in front of the inner message in place.
func TestAppendEncodeReusesItsBuffer(t *testing.T) {
	for _, m := range []Message{
		IngestResponse{Ingested: 256},
		Forwarded{Inner: benchIngest(), Epoch: 3},
		ReplicaRead{Origin: 1, Inner: QueryRequest{T: 1, X: 2, Y: 3}},
	} {
		buf, err := Binary.AppendEncode(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		// The message goes in as the interface value it already is: boxing
		// it afresh per call is the caller's allocation, not the encoder's.
		allocs := testing.AllocsPerRun(50, func() {
			if buf, err = Binary.AppendEncode(buf[:0], m); err != nil {
				t.Fatal(err)
			}
		})
		ceiling := 0.0
		if _, packed := m.(Forwarded); packed {
			ceiling = racePackAllocs
		}
		if allocs > ceiling {
			t.Errorf("%T: AppendEncode into a warm buffer = %v allocs, want ≤ %v", m, allocs, ceiling)
		}
	}
}

// benchIngest is a 256-tuple upload (8 KiB of tuples).
func benchIngest() IngestRequest {
	m := IngestRequest{Pollutant: tuple.CO, Tuples: make([]tuple.Raw, 256)}
	for i := range m.Tuples {
		m.Tuples[i] = tuple.Raw{T: float64(i), X: float64(i * 3), Y: float64(i * 7), S: 400}
	}
	return m
}

// BenchmarkForwardedEncode is the router's side of the hop: a 256-tuple
// upload wrapped in an epoch-bearing Forwarded frame, encoded into a
// connection's warm write buffer (fresh: one exactly sized allocation).
func BenchmarkForwardedEncode(b *testing.B) {
	var m Message = Forwarded{Inner: benchIngest(), Epoch: 3}
	b.Run("warm", func(b *testing.B) {
		var buf []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			if buf, err = Binary.AppendEncode(buf[:0], m); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(buf)))
	})
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Binary.Encode(m); err != nil {
				b.Fatal(err)
			}
		}
	})
}
