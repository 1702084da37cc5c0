package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/geo"
	"repro/internal/tuple"
)

// goldenMessages is one message of every type (and of every optional
// trailing-field variant), none carrying an error code.
func goldenMessages() []Message {
	ring := RingResponse{Nodes: []string{"a:1", "b:2", "c:3"}, Cells: []geo.Point{{X: 1, Y: 2}}, VNodes: 8, Replicas: 2}
	return []Message{
		QueryRequest{T: 120, X: 3.5, Y: -7, Pollutant: tuple.CO},
		QueryResponse{Value: 421.25},
		ModelRequest{T: 3600, Pollutant: tuple.PM},
		ModelResponse{
			ValidFrom: 0, ValidUntil: 14400, ValueLo: 300, ValueHi: 600, Pollutant: 1,
			Features:  "linear-xy",
			Centroids: []geo.Point{{X: 1, Y: 2}, {X: 3, Y: 4}},
			Coefs:     [][]float64{{400, 0.1, 0.2}, {410, -0.1, 0}},
		},
		ErrorResponse{Msg: "window 3 is empty"},
		BatchQueryRequest{Items: []QueryRequest{{T: 1, X: 2, Y: 3}, {T: 4, X: 5, Y: 6, Pollutant: tuple.PM}}},
		BatchQueryResponse{Items: []BatchQueryItem{{Value: 420}, {Err: "out of window"}, {Value: 90.5}}},
		RingRequest{},
		ring,
		RingResponse{Nodes: []string{"a:1", ""}, Cells: []geo.Point{{X: 1, Y: 2}}, VNodes: 8, Epoch: 5},
		IngestRequest{Pollutant: tuple.CO, Tuples: []tuple.Raw{{T: 1, X: 2, Y: 3, S: 4}}},
		IngestResponse{Ingested: 7},
		HeatmapRequest{T: 60, Pollutant: tuple.PM, Cols: 4, Rows: 4},
		HeatmapRequest{T: 60, Cols: 2, Rows: 3, HasRegion: true, Region: geo.Rect{Min: geo.Point{X: -1, Y: -2}, Max: geo.Point{X: 3, Y: 4}}},
		HeatmapResponse{Region: geo.Rect{Max: geo.Point{X: 1, Y: 1}}, Cols: 1, Rows: 2, T: 60, Values: []float64{1, 2}},
		Forwarded{Inner: QueryRequest{T: 1, X: 2, Y: 3}},
		Forwarded{Inner: QueryRequest{T: 1, X: 2, Y: 3}, Epoch: 4},
		SubscribeRequest{Pollutant: tuple.CO, Points: []SubPoint{{T: 1, X: 2, Y: 3}, {T: 4, X: 5, Y: 6}}},
		SubscribeAck{ID: 9, Points: 2},
		Push{ID: 9, Seq: 3, Points: []PushPoint{{Index: 0, Value: 420}, {Index: 1, Err: "no cover"}}},
		Push{ID: 9, Seq: 4, Resync: true, Err: "owner unreachable", Points: []PushPoint{{Index: 0, Value: 1}}},
		ReplicaIngest{Origin: 1, Pollutant: tuple.PM, Seq: 41, Tuples: []tuple.Raw{{T: 1, X: 2, Y: 3, S: 4}}},
		ReplicaCatchupResponse{From: 12, Done: true, Tuples: []tuple.Raw{{T: 5, X: 6, Y: 7, S: 8}}},
		ReplicaCatchupResponse{Snapshot: true, Tuples: []tuple.Raw{{T: 1, X: 2, Y: 3, S: 4}}},
		ReplicaRead{Origin: 2, Inner: QueryRequest{T: 1, X: 2, Y: 3, Pollutant: tuple.CO}},
		JoinRequest{Addr: "joiner:8081"},
		RingUpdate{Ring: ring, Commit: true},
		ShardTransfer{Origin: 1, Pollutant: tuple.PM, Have: 99},
		Promote{Node: 1, Epoch: 7},
	}
}

// goldenFrames are the encodings of goldenMessages captured at the
// commit before error codes existed (3dfb345), in the same order — all but
// the two batch frames and the HeatmapResponse's, which are the
// column-coded batch's tag-30 and tag-31 frames and the predictively
// coded raster's tag-29 frame: the fixed-width tag-6, tag-7 and tag-13
// frames that stood here are now retired, and so are the tag-19 and
// tag-20 unsubscribe frames (TestRetiredTagsDecodeAsUnknown).
// Seven more carry every field of their one layout where the captured frame
// left a field out at its zero value: the ErrorResponse its code byte, the
// two RingResponses and the RingUpdate's ring their replica count and
// epoch, the ShardTransfer its incarnation, and the two Forwarded frames
// their epoch under tag 32 (TestShortVariantsRefused holds the frames they
// replace). The four tuple frames — the IngestRequest, the ReplicaIngest
// and the two ReplicaCatchupResponses — carry their tuples as one packed
// run under tags 33, 34 and 35, behind every fixed field (the incarnation
// included); their raw tag-10, tag-21 and tag-23 frames are retired.
var goldenFrames = []string{
	"010000000000005e400000000000000c400000000000001cc001",
	"020000000000547a40",
	"03000000000020ac4002",
	"040000000000000000000000000020cc400000000000c072400000000000c0824001096c696e6561722d78790200000000000000f03f00000000000000400300000000000079409a9999999999b93f9a9999999999c93f00000000000008400000000000001040030000000000a079409a9999999999b9bf0000000000000000",
	"05110077696e646f77203320697320656d70747900",
	"1e020078787810000000000000e07f0000000000004000000000000000800000000000002800000000000010800000000000002004",
	"1f03000807000000000080f480ffffffffff3f470100010d006f7574206f662077696e646f77",
	"08",
	"0903000300613a310300623a320300633a330100000000000000f03f0000000000000040080002000000000000000000",
	"0902000300613a3100000100000000000000f03f0000000000000040080000000500000000000000",
	"210101000000020000000100000000000000020000000200000000000000020000000300000000000000020000000400000000000000",
	"0b07000000",
	"0c0000000000004e40020400040000",
	"0c0000000000004e40000200030001000000000000f0bf00000000000000c000000000000008400000000000001040",
	"1d00000000000000000000000000000000000000000000f03f000000000000f03f010002000000000000004e4078000000000000e07f00000000000020",
	"20000000000000000001000000000000f03f0000000000000040000000000000084000",
	"20040000000000000001000000000000f03f0000000000000040000000000000084000",
	"10010200000000000000f03f00000000000000400000000000000840000000000000104000000000000014400000000000001840",
	"1109000000000000000200",
	"120900000000000000030000000000000000000002000000000000000000407a4001000108006e6f20636f766572",
	"12090000000000000004000000000000000111006f776e657220756e726561636861626c650100000000000000000000f03f",
	"220100022900000000000000000000000000000001000000020000000100000000000000020000000200000000000000020000000300000000000000020000000400000000000000",
	"23020c00000000000000000000000000000001000000020000000500000000000000020000000600000000000000020000000700000000000000020000000800000000000000",
	"23010000000000000000000000000000000001000000020000000100000000000000020000000200000000000000020000000300000000000000020000000400000000000000",
	"18020001000000000000f03f0000000000000040000000000000084001",
	"190b006a6f696e65723a38303831",
	"1a010903000300613a310300623a320300633a330100000000000000f03f0000000000000040080002000000000000000000",
	"1b01000263000000000000000000000000000000",
	"1c01000700000000000000",
}

// TestUncodedFramesMatchParentGolden locks every message's one layout:
// each golden message encodes to its golden frame, and the frame decodes
// back to a fixed point of re-encoding.
func TestUncodedFramesMatchParentGolden(t *testing.T) {
	msgs := goldenMessages()
	if len(msgs) != len(goldenFrames) {
		t.Fatalf("%d messages vs %d golden frames", len(msgs), len(goldenFrames))
	}
	for i, m := range msgs {
		want, err := hex.DecodeString(goldenFrames[i])
		if err != nil {
			t.Fatal(err)
		}
		got, err := Binary.Encode(m)
		if err != nil {
			t.Fatalf("encode %T: %v", m, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%T (#%d) encodes to\n %x\ngolden frame is\n %x", m, i, got, want)
		}
		// And the golden bytes decode to the same frame.
		dec, err := Binary.Decode(want)
		if err != nil {
			t.Fatalf("golden %T frame does not decode: %v", m, err)
		}
		if re, err := Binary.Encode(dec); err != nil || !bytes.Equal(re, want) {
			t.Errorf("golden %T frame is not a fixed point of decode/encode (%v)", m, err)
		}
	}
}

// TestRetiredTagsDecodeAsUnknown: tags 6 and 7 (BatchQueryRequest and
// BatchQueryResponse with fixed-width fields), 10, 21 and 23
// (IngestRequest, ReplicaIngest and ReplicaCatchupResponse with raw
// tuples), 13 (HeatmapResponse with raw IEEE values), 14
// (NotOwnerResponse), 15 (Forwarded with its epoch behind a marker byte),
// 19 and 20 (UnsubscribeRequest and UnsubscribeResponse) and 22
// (ReplicaCatchupRequest) are retired, so the last frames a node ever
// wrote with them — bare and with their full payloads, and the replica
// frames also as they were before they carried an incarnation — decode as
// an unknown message, never as something else that took the tag.
func TestRetiredTagsDecodeAsUnknown(t *testing.T) {
	for _, frame := range []string{
		"06", "060200000000000000f03f000000000000004000000000000008400000000000000010400000000000001440000000000000184002",
		"07", "070300000000000000407a40010d006f7574206f662077696e646f77000000000000a05640",
		"0d", "0d00000000000000000000000000000000000000000000f03f000000000000f03f010002000000000000004e40000000000000f03f0000000000000040",
		"0e", "0e01000300633a33", "0e01000300633a330200000000000000",
		"0f", "0f01000000000000f03f0000000000000040000000000000084000",
		"0fff040000000000000001000000000000f03f0000000000000040000000000000084000",
		"13", "130900000000000000",
		"14", "1401",
		"16", "16010c00000000000000",
		"0a", "0a0101000000000000000000f03f000000000000004000000000000008400000000000001040",
		"15", "15010002290000000000000001000000000000000000f03f0000000000000040000000000000084000000000000010400000000000000000",
		"15010002290000000000000001000000000000000000f03f000000000000004000000000000008400000000000001040",
		"17", "17020c0000000000000001000000000000000000144000000000000018400000000000001c4000000000000020400000000000000000",
		"17020c0000000000000001000000000000000000144000000000000018400000000000001c400000000000002040",
		"1701000000000000000001000000000000000000f03f000000000000004000000000000008400000000000001040",
	} {
		data, err := hex.DecodeString(frame)
		if err != nil {
			t.Fatal(err)
		}
		for name, decode := range map[string]func([]byte) (Message, error){
			"Decode": Binary.Decode, "DecodeLent": Binary.DecodeLent,
		} {
			if m, err := decode(data); !errors.Is(err, ErrUnknown) {
				t.Errorf("%s(%s) = %#v, %v; want ErrUnknown", name, frame, m, err)
			}
		}
	}
}

// TestErrorCodeLayout pins how a code travels: the trailing byte of an
// ErrorResponse, 0 when untyped, and the status byte of a failed batch
// item.
func TestErrorCodeLayout(t *testing.T) {
	plain, err := Binary.Encode(ErrorResponse{Msg: "boom"})
	if err != nil {
		t.Fatal(err)
	}
	coded, err := Binary.Encode(ErrorResponse{Msg: "boom", Code: CodeSaturated})
	if err != nil {
		t.Fatal(err)
	}
	text := []byte{byte(TypeError), 4, 0, 'b', 'o', 'o', 'm'}
	if want := append(bytes.Clone(text), 0); !bytes.Equal(plain, want) {
		t.Errorf("untyped frame = %x, want %x", plain, want)
	}
	if want := append(bytes.Clone(text), byte(CodeSaturated)); !bytes.Equal(coded, want) {
		t.Errorf("coded frame = %x, want %x", coded, want)
	}
	for frame, want := range map[string]ErrorResponse{
		string(plain): {Msg: "boom"},
		string(coded): {Msg: "boom", Code: CodeSaturated},
	} {
		got, err := Binary.Decode([]byte(frame))
		if err != nil || got != Message(want) {
			t.Errorf("decode %x = %#v, %v; want %#v", frame, got, err, want)
		}
	}
	// Code 1 never travels, and nothing may follow the code.
	for _, bad := range [][]byte{append(bytes.Clone(text), 1), append(bytes.Clone(coded), 0)} {
		if _, err := Binary.Decode(bad); err == nil {
			t.Errorf("error frame %x decoded", bad)
		}
	}

	items := []BatchQueryItem{{Value: 7}, {Err: "untyped"}, FailedItem(CodeOutOfWindow, "typed")}
	if items[1].Code() != CodeNone || items[2].Code() != CodeOutOfWindow || items[0].Code() != CodeNone {
		t.Fatalf("item codes = %d, %d, %d", items[0].Code(), items[1].Code(), items[2].Code())
	}
	enc, err := Binary.Encode(BatchQueryResponse{Items: items})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Binary.Decode(enc)
	if err != nil || !reflect.DeepEqual(dec, Message(BatchQueryResponse{Items: items})) {
		t.Fatalf("coded batch round trip = %#v, %v", dec, err)
	}
	// The code rides the failure's status byte, so a typed item is exactly
	// as wide as the untyped one with the same text.
	uncoded, _ := Binary.Encode(BatchQueryResponse{Items: []BatchQueryItem{{Value: 7}, {Err: "untyped"}, {Err: "typed"}}})
	if len(enc) != len(uncoded) {
		t.Errorf("coded batch is %d bytes, uncoded %d", len(enc), len(uncoded))
	}
	// The failures follow the header, the counts (2 bytes) and 7's
	// residual (8 bytes); each one's index comes before its status byte.
	failures := 3 + 2 + 8
	untypedAt, typedAt := failures+2, failures+failureHeader+len("untyped")+2
	if enc[untypedAt] != 1 || enc[typedAt] != byte(CodeOutOfWindow) || uncoded[typedAt] != 1 {
		t.Errorf("status bytes = %d, %d (uncoded %d); want 1, %d (1)",
			enc[untypedAt], enc[typedAt], uncoded[typedAt], CodeOutOfWindow)
	}
	// A typed failure without text would decode as a value: refused.
	textless := append([]byte{}, enc[:typedAt+1]...)
	textless = append(textless, 0, 0)
	if _, err := Binary.Decode(textless); err == nil {
		t.Error("typed batch item without text decoded")
	}
	// The code costs no memory: an item is still a float64 and a string
	// header (24 bytes on a 64-bit platform, 16 on a 32-bit one).
	if size, want := unsafe.Sizeof(BatchQueryItem{}), unsafe.Sizeof(float64(0))+unsafe.Sizeof(""); size != want {
		t.Errorf("BatchQueryItem is %d bytes, want %d (a route reply holds 100 of them)", size, want)
	}
}

// TestShortVariantsRefused: each frame that once left a field out at its
// zero value — the last frames a node wrote that way — is refused by its
// length under the frame's one layout, never read as another message.
func TestShortVariantsRefused(t *testing.T) {
	for _, c := range []struct{ frame, left string }{
		{"05110077696e646f77203320697320656d707479", "ErrorResponse without its code"},
		{"0902000300613a310300623a320100000000000000f03f00000000000000400800", "RingResponse without replicas and epoch"},
		{"0903000300613a310300623a320300633a330100000000000000f03f000000000000004008000200", "RingResponse without its epoch"},
		{"0902000300613a3100000100000000000000f03f000000000000004008000500000000000000", "RingResponse without its replicas"},
		{"1a010903000300613a310300623a320300633a330100000000000000f03f000000000000004008000200", "RingUpdate of a ring without its epoch"},
		{"1b0100026300000000000000", "ShardTransfer without its incarnation"},
	} {
		data, err := hex.DecodeString(c.frame)
		if err != nil {
			t.Fatal(err)
		}
		for name, decode := range map[string]func([]byte) (Message, error){
			"Decode": Binary.Decode, "DecodeLent": Binary.DecodeLent,
		} {
			if m, err := decode(data); !errors.Is(err, ErrMalformed) {
				t.Errorf("%s of a %s = %#v, %v; want ErrMalformed", name, c.left, m, err)
			}
		}
	}
}
