package wire

// Round-trip and robustness tests for the v1.4 replication messages,
// plus the backward-compatibility guarantee that pre-replication frames
// — including the RingResponse without a replica suffix — decode (and
// re-encode) byte-for-byte unchanged.

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"

	"repro/internal/geo"
	"repro/internal/tuple"
)

func replicaMessages() []Message {
	return []Message{
		ReplicaIngest{Origin: 1, Pollutant: tuple.PM, Seq: 41, Tuples: []tuple.Raw{
			{T: 60, X: 120, Y: -35.5, S: 421.5},
			{T: 61, X: 980.25, Y: 410, S: 14},
		}},
		ReplicaIngest{Origin: 0, Pollutant: tuple.CO2, Seq: 0, Tuples: nil},
		ReplicaCatchupResponse{From: 12, Tuples: []tuple.Raw{{T: 1, X: 2, Y: 3, S: 4}}},
		ReplicaCatchupResponse{From: 13, Done: true, Tuples: nil},
		ReplicaCatchupResponse{Snapshot: true, From: 5, Tuples: []tuple.Raw{{T: 9, X: 8, Y: 7, S: 6}}},
		ReplicaRead{Origin: 2, Inner: QueryRequest{T: 1, X: 2, Y: 3, Pollutant: tuple.PM}},
		ReplicaRead{Origin: 0, Inner: HeatmapRequest{T: 60, Cols: 2, Rows: 2, HasRegion: true,
			Region: geo.Rect{Min: geo.Point{X: -1, Y: -1}, Max: geo.Point{X: 1, Y: 1}}}},
		ReplicaRead{Origin: 1, Inner: BatchQueryRequest{Items: []QueryRequest{{T: 1, X: 2, Y: 3}}}},
		RingResponse{Nodes: []string{"a:1", "b:2", "c:3"}, Cells: []geo.Point{{X: 1, Y: 2}}, VNodes: 8, Replicas: 2},
	}
}

func TestReplicaMessageRoundTrip(t *testing.T) {
	for _, m := range replicaMessages() {
		enc, err := Binary.Encode(m)
		if err != nil {
			t.Fatalf("encode %T: %v", m, err)
		}
		dec, err := Binary.Decode(enc)
		if err != nil {
			t.Fatalf("decode %T: %v", m, err)
		}
		// Binary decode materializes nil tuple slices as empty; compare
		// through a second encode for byte-level equality instead.
		enc2, err := Binary.Encode(dec)
		if err != nil {
			t.Fatalf("re-encode %T: %v", m, err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip of %T not a fixed point:\n got %#v\nwant %#v", m, dec, m)
		}
	}
}

// TestIncarnationSuffix: an incarnation rides as 8 trailing bytes only
// when nonzero, so a zero one encodes as the frame did before the field,
// and a frame spelling out a zero suffix, or a cut one, is malformed.
func TestIncarnationSuffix(t *testing.T) {
	for _, m := range []Message{
		ReplicaIngest{Origin: 1, Seq: 2, Tuples: []tuple.Raw{{T: 1}}},
		ReplicaCatchupResponse{From: 3, Tuples: []tuple.Raw{{T: 1}}},
		ShardTransfer{Origin: 1, Have: 4},
	} {
		plain, err := Binary.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		var with Message
		switch v := m.(type) {
		case ReplicaIngest:
			v.Incarnation = 9
			with = v
		case ReplicaCatchupResponse:
			v.Incarnation = 9
			with = v
		case ShardTransfer:
			v.Incarnation = 9
			with = v
		}
		enc, err := Binary.Encode(with)
		if err != nil {
			t.Fatal(err)
		}
		if want := append(append([]byte{}, plain...), 9, 0, 0, 0, 0, 0, 0, 0); !bytes.Equal(enc, want) {
			t.Errorf("%T with incarnation 9 = %x, want %x", m, enc, want)
		}
		if dec, err := Binary.Decode(enc); err != nil || !reflect.DeepEqual(dec, with) {
			t.Errorf("%T round trip = %#v, %v", m, dec, err)
		}
		for _, tail := range [][]byte{make([]byte, 8), {9}, {9, 0, 0, 0, 0, 0, 0, 0, 0}} {
			if _, err := Binary.Decode(append(append([]byte{}, plain...), tail...)); err == nil {
				t.Errorf("%T with suffix %x decoded", m, tail)
			}
		}
	}
}

// TestIncarnationGolden pins the incarnation suffix's frames: the golden
// frames of the same messages without it, plus 8 bytes.
func TestIncarnationGolden(t *testing.T) {
	for _, g := range []struct {
		m    Message
		want string
	}{
		{ReplicaIngest{Origin: 1, Pollutant: tuple.PM, Seq: 41, Incarnation: 1 << 60}, "150100022900000000000000000000000000000000000010"},
		{ReplicaCatchupResponse{From: 12, Done: true, Incarnation: 1 << 60}, "17020c00000000000000000000000000000000000010"},
		{ShardTransfer{Origin: 1, Pollutant: tuple.PM, Have: 99, Incarnation: 1 << 60}, "1b01000263000000000000000000000000000010"},
	} {
		got, err := Binary.Encode(g.m)
		if err != nil || hex.EncodeToString(got) != g.want {
			t.Errorf("%T = %x, %v; want %s", g.m, got, err, g.want)
		}
	}
}

func TestReplicaReadNeverNestsWrappers(t *testing.T) {
	bad := []Message{
		ReplicaRead{Origin: 1, Inner: ReplicaRead{Origin: 2, Inner: QueryRequest{}}},
		ReplicaRead{Origin: 1, Inner: Forwarded{Inner: QueryRequest{}}},
		ReplicaRead{Origin: 1},
	}
	for _, m := range bad {
		if _, err := Binary.Encode(m); err == nil {
			t.Errorf("encoded %#v", m)
		}
	}
	// And the decoders reject hand-built nested frames.
	inner, err := Binary.Encode(QueryRequest{T: 1, X: 2, Y: 3, Pollutant: 1})
	if err != nil {
		t.Fatal(err)
	}
	nested := append([]byte{byte(TypeReplicaRead), 0, 0, byte(TypeReplicaRead), 0, 0}, inner...)
	if _, err := Binary.Decode(nested); err == nil {
		t.Error("binary decoded nested replica read")
	}
	fwdNested := append([]byte{byte(TypeReplicaRead), 0, 0, byte(TypeForwarded)}, inner...)
	if _, err := Binary.Decode(fwdNested); err == nil {
		t.Error("binary decoded forwarded frame inside replica read")
	}
}

func TestReplicaDecodeRobustness(t *testing.T) {
	goodIngest, err := Binary.Encode(ReplicaIngest{Origin: 1, Seq: 2, Tuples: []tuple.Raw{{T: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	goodCatchup, err := Binary.Encode(ReplicaCatchupResponse{From: 1, Tuples: []tuple.Raw{{T: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	badFlags := append([]byte(nil), goodCatchup...)
	badFlags[1] = 0xF0 // undefined flag bits

	cases := [][]byte{
		{byte(TypeReplicaIngest)},                      // no header
		goodIngest[:20],                                // truncated tuples
		append(append([]byte(nil), goodIngest...), 0),  // trailing byte
		{byte(TypeReplicaCatchupResponse), 0, 0},       // short header
		badFlags,                                       // undefined flags
		goodCatchup[:20],                               // truncated tuples
		append(append([]byte(nil), goodCatchup...), 0), // trailing byte
		{byte(TypeReplicaRead), 0},                     // no inner message
		{byte(TypeReplicaRead), 0, 0, 0xFF},            // unknown inner tag
	}
	for _, data := range cases {
		if _, err := Binary.Decode(data); err == nil {
			t.Errorf("malformed frame % x decoded", data)
		}
	}
}

// TestRingResponseReplicaSuffix locks the RingResponse evolution: the
// replica suffix appears exactly when R > 1, an unreplicated ring's
// frame is byte-identical to its v1.2 form, and a non-canonical suffix
// (R <= 1 spelled out) is rejected so encode∘decode stays a fixed point.
func TestRingResponseReplicaSuffix(t *testing.T) {
	base := RingResponse{Nodes: []string{"a:1", "b:2"}, Cells: []geo.Point{{X: 1, Y: 2}}, VNodes: 8}
	old, err := Binary.Encode(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []uint16{0, 1} {
		m := base
		m.Replicas = r
		enc, err := Binary.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, old) {
			t.Fatalf("R=%d ring frame differs from the unreplicated layout", r)
		}
	}
	rep := base
	rep.Replicas = 3
	enc, err := Binary.Encode(rep)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != len(old)+2 {
		t.Fatalf("replicated ring frame is %d bytes, want %d", len(enc), len(old)+2)
	}
	dec, err := Binary.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, rep) {
		t.Fatalf("replicated ring round trip: %#v", dec)
	}
	// Old decoders never see the suffix; old frames decode with R=0 here.
	dec, err = Binary.Decode(old)
	if err != nil {
		t.Fatal(err)
	}
	if dec.(RingResponse).Replicas != 0 {
		t.Fatalf("v1.2 ring frame decoded with R=%d", dec.(RingResponse).Replicas)
	}
	// A suffix spelling out R<=1 is non-canonical and rejected.
	for _, r := range []byte{0, 1} {
		bad := append(append([]byte(nil), old...), r, 0)
		if _, err := Binary.Decode(bad); err == nil {
			t.Errorf("non-canonical replica suffix %d decoded", r)
		}
	}
}

// TestPreReplicaFramesUnchanged locks the v1.4 compatibility guarantee:
// replication only extends the tag space above the subscription range.
func TestPreReplicaFramesUnchanged(t *testing.T) {
	if TypeReplicaIngest != 21 || TypeReplicaRead != 24 {
		t.Fatalf("replication tags moved: %d..%d, want 21..24", TypeReplicaIngest, TypeReplicaRead)
	}
	// Fixed-size v1.4 frames are locked.
	ing, _ := Binary.Encode(ReplicaIngest{Origin: 1, Seq: 2})
	if len(ing) != 16 {
		t.Fatalf("empty ReplicaIngest frame is %d bytes, want 16", len(ing))
	}
}
