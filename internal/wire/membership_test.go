package wire

// Round-trip and robustness tests for the membership messages
// (JoinRequest, RingUpdate, ShardTransfer, Promote) and the epoch that
// RingResponse and Forwarded frames carry.

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/geo"
	"repro/internal/tuple"
)

func membershipMessages() []Message {
	ring := RingResponse{
		Nodes:    []string{"10.0.0.1:8081", "", "10.0.0.3:8081"}, // slot 1 tombstoned
		Cells:    []geo.Point{{X: -500, Y: 250}, {X: 900, Y: -1200}},
		VNodes:   64,
		Replicas: 2,
		Epoch:    3,
	}
	return []Message{
		JoinRequest{Addr: "joiner.example:9000"},
		JoinRequest{Addr: "j:1"},
		RingUpdate{Ring: ring},
		RingUpdate{Ring: ring, Commit: true},
		ShardTransfer{Origin: 2, Pollutant: tuple.PM, Have: 4096},
		ShardTransfer{Origin: 0, Pollutant: tuple.CO2, Have: 0},
		Promote{Node: 1, Epoch: 7},
		Promote{Node: 0, Epoch: 1},
		// The epoch of the ring and routing frames, 0 included.
		RingResponse{Nodes: []string{"a:1", "b:2"}, Cells: []geo.Point{{X: 1, Y: 2}}, VNodes: 8, Epoch: 9},
		Forwarded{Inner: QueryRequest{T: 5, X: 6, Y: 7, Pollutant: tuple.PM}, Epoch: 4},
		Forwarded{Inner: IngestRequest{Pollutant: tuple.CO2, Tuples: []tuple.Raw{{T: 1, X: 2, Y: 3, S: 4}}}, Epoch: 12},
		RingResponse{Nodes: []string{"a:1"}, Cells: []geo.Point{{X: 1, Y: 2}}, VNodes: 8, Replicas: 1},
		Forwarded{Inner: QueryRequest{T: 5, X: 6, Y: 7, Pollutant: tuple.PM}},
	}
}

func TestMembershipMessageRoundTrip(t *testing.T) {
	for _, m := range membershipMessages() {
		enc, err := Binary.Encode(m)
		if err != nil {
			t.Fatalf("encode %T: %v", m, err)
		}
		dec, err := Binary.Decode(enc)
		if err != nil {
			t.Fatalf("decode %T: %v", m, err)
		}
		if !reflect.DeepEqual(m, dec) {
			t.Fatalf("round trip of %T:\n got %#v\nwant %#v", m, dec, m)
		}
	}
}

// TestRingUpdateRejectsNonRingPayload: the RingUpdate wrapper carries
// exactly one message shape; anything else is malformed, not recursed.
func TestRingUpdateRejectsNonRingPayload(t *testing.T) {
	inner, err := Binary.Encode(QueryRequest{T: 1, X: 2, Y: 3})
	if err != nil {
		t.Fatal(err)
	}
	frame := append([]byte{byte(TypeRingUpdate), 0}, inner...)
	if _, err := Binary.Decode(frame); !errors.Is(err, ErrMalformed) {
		t.Errorf("RingUpdate wrapping a query decoded: %v", err)
	}
}

func TestMembershipDecodeRobustness(t *testing.T) {
	cases := [][]byte{
		{byte(TypeJoinRequest)},                                       // no length
		{byte(TypeJoinRequest), 5, 0, 'a'},                            // claims 5 bytes, has 1
		{byte(TypeRingUpdate)},                                        // no commit flag
		{byte(TypeRingUpdate), 2, byte(TypeRingResponse)},             // commit flag out of range
		{byte(TypeRingUpdate), 1},                                     // no ring payload
		{byte(TypeShardTransfer), 0, 0, 1},                            // short
		{byte(TypeShardTransfer), 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0}, // no incarnation
		append([]byte{byte(TypeShardTransfer)}, make([]byte, 20)...),  // long
		{byte(TypePromote), 0, 0},                                     // short
		{byte(TypePromote), 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9},          // long
	}
	for _, data := range cases {
		if _, err := Binary.Decode(data); err == nil {
			t.Errorf("malformed membership frame % x decoded", data)
		}
	}
}
