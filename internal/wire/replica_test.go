package wire

// Round-trip and robustness tests for the replication messages.

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

// TestIncarnationGolden pins where an incarnation travels: the last of a
// tuple frame's fixed fields, before its packed run (here an empty one,
// its count alone), and the last 8 bytes of a ShardTransfer; each frame
// decodes back to the message.
func TestIncarnationGolden(t *testing.T) {
	for _, g := range []struct {
		m    Message
		want string
	}{
		{ReplicaIngest{Origin: 1, Pollutant: tuple.PM, Seq: 41, Tuples: []tuple.Raw{}, Incarnation: 1 << 60}, "220100022900000000000000000000000000001000000000"},
		{ReplicaCatchupResponse{From: 12, Done: true, Tuples: []tuple.Raw{}, Incarnation: 1 << 60}, "23020c00000000000000000000000000001000000000"},
		{ShardTransfer{Origin: 1, Pollutant: tuple.PM, Have: 99, Incarnation: 1 << 60}, "1b01000263000000000000000000000000000010"},
	} {
		got, err := Binary.Encode(g.m)
		if err != nil || hex.EncodeToString(got) != g.want {
			t.Errorf("%T = %x, %v; want %s", g.m, got, err, g.want)
		}
		if dec, err := Binary.Decode(got); err != nil || !reflect.DeepEqual(dec, g.m) {
			t.Errorf("%T round trip = %#v, %v", g.m, dec, err)
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
