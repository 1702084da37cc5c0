package wire

// Round-trip and robustness tests for the v1.3 subscription messages,
// plus the backward-compatibility guarantee that pre-subscription
// frames decode unchanged (new tags only, no layout changes).

import (
	"reflect"
	"testing"

	"repro/internal/tuple"
)

func subsMessages() []Message {
	return []Message{
		SubscribeRequest{
			Pollutant: tuple.PM,
			Points: []SubPoint{
				{T: 60, X: 120, Y: -35.5},
				{T: 120, X: 980.25, Y: 410},
			},
		},
		SubscribeAck{ID: 42, Points: 2},
		Push{ID: 42, Seq: 7, Points: []PushPoint{
			{Index: 0, Value: 421.5},
			{Index: 3, Err: "no cover for window"},
		}},
		Push{ID: 42, Seq: 8, Resync: true, Points: []PushPoint{
			{Index: 0, Value: 421.5},
			{Index: 1, Value: 430},
		}},
		Push{ID: 42, Seq: 9, Err: "cluster: owner node 1 unreachable"},
		Forwarded{Inner: SubscribeRequest{Pollutant: tuple.CO, Points: []SubPoint{{T: 1, X: 2, Y: 3}}}},
	}
}

func TestSubsMessageRoundTrip(t *testing.T) {
	for _, m := range subsMessages() {
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

func TestSubsDecodeRobustness(t *testing.T) {
	goodPush, err := Binary.Encode(Push{ID: 1, Seq: 2, Points: []PushPoint{{Index: 0, Value: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	badFlags := append([]byte(nil), goodPush...)
	badFlags[17] = 0xFF // undefined flag bits
	badPointFlag := append([]byte(nil), goodPush...)
	badPointFlag[24] = 7 // point flag is neither value (0) nor error (1)

	cases := [][]byte{
		{byte(TypeSubscribeRequest)},             // no header
		{byte(TypeSubscribeRequest), 0, 5, 0},    // claims 5 points, has none
		{byte(TypeSubscribeRequest), 0, 0, 0, 9}, // trailing byte
		{byte(TypeSubscribeAck), 1, 2, 3},        // short
		append(make([]byte, 0, 12), // ack with trailing byte
			byte(TypeSubscribeAck), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9),
		{byte(TypePush), 1, 2, 3}, // short header
		{byte(TypePush), 0, 0, 0, 0, 0, 0, 0, 0, // huge count, no body
			0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 255, 255},
		badFlags,
		badPointFlag,
		append(append([]byte(nil), goodPush...), 0), // trailing byte
	}
	for _, data := range cases {
		if _, err := Binary.Decode(data); err == nil {
			t.Errorf("malformed frame % x decoded", data)
		}
	}
}

// TestPreSubsFramesUnchanged locks the v1.3 compatibility guarantee:
// the subscription tags only extend the tag space — every pre-existing
// frame layout, core and cluster, decodes byte-for-byte unchanged.
func TestPreSubsFramesUnchanged(t *testing.T) {
	q, err := Binary.Encode(QueryRequest{T: 1, X: 2, Y: 3, Pollutant: tuple.PM})
	if err != nil {
		t.Fatal(err)
	}
	if len(q) != 26 {
		t.Fatalf("v1 QueryRequest frame is %d bytes, want 26", len(q))
	}
	// The new tags sit strictly above the cluster range.
	if TypeSubscribeRequest != 16 || TypePush != 18 {
		t.Fatalf("subscription tags moved: %d..%d, want 16..18",
			TypeSubscribeRequest, TypePush)
	}
	// And the fixed-size v1.3 frames are locked too.
	ack, _ := Binary.Encode(SubscribeAck{ID: 1, Points: 2})
	if len(ack) != 11 {
		t.Fatalf("SubscribeAck frame is %d bytes, want 11", len(ack))
	}
}
