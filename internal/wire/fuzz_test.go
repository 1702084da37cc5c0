package wire

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/geo"
	"repro/internal/tuple"
)

// FuzzWireDecode hardens the binary protocol decoder (the bytes a
// server reads straight off a TCP link): arbitrary frames must never
// panic, must fail identically on repeated decodes, and every accepted
// message must re-encode and re-decode to a byte-identical frame, must not
// change when the bytes it was decoded from are overwritten (connections
// read the next frame into the same buffer), and must append-encode behind
// a prefix to the same bytes; DecodeLent must agree with Decode, and agree
// again when it decodes into the memory it lent before, given back and
// soiled as a borrower may leave it (so a decoder that leaves any field of
// a lent item unwritten fails). Every
// accepted ModelResponse must either convert to a cover and back to a
// field-equal response, or fail to convert with an error. Seeds
// are the round-trip suite's message shapes plus the removed pre-v1
// untagged layouts and the frames that left a zero field out (now
// malformed), the retired tags' frames (now unknown), the packed tuple
// frames and mutations.
func FuzzWireDecode(f *testing.F) {
	add := func(m Message) {
		enc, err := Binary.Encode(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	add(QueryRequest{T: 120, X: 3.5, Y: -7, Pollutant: 1})
	add(QueryResponse{Value: 421.25})
	add(ModelRequest{T: 3600, Pollutant: 2})
	add(ErrorResponse{Msg: "no cover"})
	// Coded failures: the trailing code byte and the typed item status.
	add(ErrorResponse{Msg: "query: no model cover", Code: CodeNoCover})
	add(ErrorResponse{Code: CodeReplicaMiss})
	// The untyped error's code byte, and the frame that left it out.
	f.Add([]byte{byte(TypeError), 2, 0, 'n', 'o', 0})
	f.Add([]byte{byte(TypeError), 2, 0, 'n', 'o'})
	add(BatchQueryResponse{Items: []BatchQueryItem{{Value: 1}, FailedItem(CodeSaturated, "saturated"), {Err: "untyped"}}})
	add(BatchQueryRequest{Items: []QueryRequest{{T: 1, X: 2, Y: 3}, {T: 4, X: 5, Y: 6, Pollutant: 2}}})
	add(BatchQueryResponse{Items: []BatchQueryItem{{Value: 420}, {Err: "out of window"}}})
	// The column-coded batch (tags 30 and 31): a shared time and
	// pollutant, a pollutant step of 255, exact predictions, a padding
	// nibble, failures first and last, and the bit patterns only integer
	// arithmetic carries.
	add(BatchQueryRequest{Items: []QueryRequest{{T: 5400, X: 1200.5, Y: 800, Pollutant: 255}, {T: 5400, X: 1225.25, Y: 790}, {T: math.NaN(), X: math.Copysign(0, -1), Y: math.Inf(-1)}}})
	add(BatchQueryResponse{Items: []BatchQueryItem{FailedItem(CodeNoCover, "no cover"), {Value: 420}, {Value: 420}, {Value: math.Float64frombits(1)}, {Err: "untyped"}}})
	add(BatchQueryRequest{})
	add(BatchQueryResponse{})
	add(ModelResponse{
		ValidFrom: 0, ValidUntil: 14400, ValueLo: 300, ValueHi: 600,
		Features:  "linear-xy",
		Centroids: []geo.Point{{X: 1, Y: 2}, {X: 3, Y: 4}},
		Coefs:     [][]float64{{400, 0.1, 0.2}, {410, -0.1, 0}},
	})
	// Cluster messages.
	add(RingRequest{})
	add(RingResponse{Nodes: []string{"a:1", "b:2"}, Cells: []geo.Point{{X: 1, Y: 2}}, VNodes: 8})
	add(IngestRequest{Pollutant: 1, Tuples: []tuple.Raw{{T: 1, X: 2, Y: 3, S: 4}}})
	add(IngestResponse{Ingested: 7})
	add(HeatmapRequest{T: 60, Cols: 4, Rows: 4})
	add(HeatmapResponse{Cols: 1, Rows: 2, Values: []float64{1, 2}})
	// The coded raster (tag 29): both count nibbles of a byte, a padding
	// nibble, exact predictions, and the bit patterns only integer
	// arithmetic carries.
	add(HeatmapResponse{Region: geo.Rect{Max: geo.Point{X: 3, Y: 2}}, Cols: 3, Rows: 2, T: 60,
		Values: []float64{420, 420, 420.5, 420, 420, math.NaN()}})
	add(HeatmapResponse{Cols: 3, Rows: 1, Values: []float64{math.Copysign(0, -1), math.Inf(1), math.Float64frombits(1)}})
	add(HeatmapResponse{Cols: 0, Rows: 3})
	add(Forwarded{Inner: QueryRequest{T: 1, X: 2, Y: 3}})
	// Subscription messages.
	add(SubscribeRequest{Pollutant: 1, Points: []SubPoint{{T: 1, X: 2, Y: 3}, {T: 4, X: 5, Y: 6}}})
	add(SubscribeAck{ID: 9, Points: 2})
	add(Push{ID: 9, Seq: 3, Points: []PushPoint{{Index: 0, Value: 420}, {Index: 1, Err: "no cover"}}})
	add(Push{ID: 9, Seq: 4, Resync: true, Err: "owner unreachable", Points: []PushPoint{{Index: 0, Value: 1}}})
	add(Forwarded{Inner: SubscribeRequest{Pollutant: 2, Points: []SubPoint{{T: 1, X: 2, Y: 3}}}})
	// Replication messages.
	add(RingResponse{Nodes: []string{"a:1", "b:2", "c:3"}, Cells: []geo.Point{{X: 1, Y: 2}}, VNodes: 8, Replicas: 2})
	add(ReplicaIngest{Origin: 1, Pollutant: 2, Seq: 41, Tuples: []tuple.Raw{{T: 1, X: 2, Y: 3, S: 4}}})
	add(ReplicaCatchupResponse{From: 12, Done: true, Tuples: []tuple.Raw{{T: 5, X: 6, Y: 7, S: 8}}})
	add(ReplicaCatchupResponse{Snapshot: true, From: 0, Tuples: []tuple.Raw{{T: 1, X: 2, Y: 3, S: 4}}})
	add(ReplicaRead{Origin: 2, Inner: QueryRequest{T: 1, X: 2, Y: 3, Pollutant: 1}})
	add(ReplicaRead{Origin: 0, Inner: HeatmapRequest{T: 60, Cols: 2, Rows: 2}})
	// Membership messages, and the epoch of ring and routing frames.
	add(JoinRequest{Addr: "joiner:8081"})
	add(RingUpdate{Ring: RingResponse{Nodes: []string{"a:1", "b:2"}, Cells: []geo.Point{{X: 1, Y: 2}}, VNodes: 8, Epoch: 3}})
	add(RingUpdate{Ring: RingResponse{Nodes: []string{"a:1", ""}, Cells: []geo.Point{{X: 1, Y: 2}}, VNodes: 8, Epoch: 4}, Commit: true})
	add(ShardTransfer{Origin: 1, Pollutant: 2, Have: 99})
	add(ShardTransfer{Origin: 1, Pollutant: 2, Have: 99, Incarnation: 7})
	add(ReplicaIngest{Origin: 1, Pollutant: 2, Seq: 41, Tuples: []tuple.Raw{{T: 1, X: 2, Y: 3, S: 4}}, Incarnation: 7})
	add(ReplicaCatchupResponse{Snapshot: true, From: 3, Incarnation: 7})
	add(Promote{Node: 1, Epoch: 7})
	add(RingResponse{Nodes: []string{"a:1", "b:2"}, Cells: []geo.Point{{X: 1, Y: 2}}, VNodes: 8, Epoch: 5})
	add(Forwarded{Inner: QueryRequest{T: 1, X: 2, Y: 3}, Epoch: 4})
	add(Forwarded{Inner: BatchQueryRequest{Items: []QueryRequest{{T: 1, X: 2, Y: 3}}}, Epoch: 1 << 40})
	add(Forwarded{Inner: HeatmapRequest{T: 60, Cols: 2, Rows: 2}, Epoch: 7})
	add(RingResponse{Nodes: []string{"a:1"}, Cells: []geo.Point{{X: 1, Y: 2}}, VNodes: 8, Replicas: 1})
	// The frames that left a zero field out: a ring without replicas and
	// epoch, and a ShardTransfer without its incarnation.
	f.Add([]byte{9, 1, 0, 3, 0, 'a', ':', '1', 0, 0, 8, 0})
	f.Add([]byte{27, 1, 0, 2, 99, 0, 0, 0, 0, 0, 0, 0})
	// The removed pre-v1 untagged frames: 25-byte query, 9-byte model
	// request.
	untaggedQuery, _ := Binary.Encode(QueryRequest{T: 9, X: 8, Y: 7})
	f.Add(untaggedQuery[:25])
	untaggedModel, _ := Binary.Encode(ModelRequest{T: 9})
	f.Add(untaggedModel[:9])
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0x01, 0x02})
	// The retired tags' last frames — NotOwnerResponse (14), bare and with
	// its epoch, Forwarded (15), bare and behind its epoch marker,
	// UnsubscribeRequest (19) and UnsubscribeResponse (20), bare and with
	// their payloads, and ReplicaCatchupRequest (22) — now unknown.
	f.Add([]byte{14, 1, 0, 3, 0, 'c', ':', '3'})
	f.Add([]byte{14, 1, 0, 3, 0, 'c', ':', '3', 2, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{15, byte(TypeIngestResponse), 7, 0, 0, 0})
	f.Add([]byte{15, 0xFF, 4, 0, 0, 0, 0, 0, 0, 0, byte(TypeIngestResponse), 7, 0, 0, 0})
	f.Add([]byte{19})
	f.Add([]byte{19, 9, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{20})
	f.Add([]byte{20, 1})
	f.Add([]byte{22, 1, 12, 0, 0, 0, 0, 0, 0, 0})
	// ... the fixed-width batch frames (6 and 7), bare and with two
	// points, and three answers, one failed ...
	f.Add([]byte{6})
	f.Add([]byte{7})
	rawRoute := make([]byte, 3+2*25)
	rawRoute[0], rawRoute[1] = 6, 2
	putF64(rawRoute[3:], 5400)
	putF64(rawRoute[28:], 5400)
	rawRoute[52] = 2
	f.Add(rawRoute)
	f.Add([]byte{7, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0x7a, 0x40, 1, 2, 0, 'n', 'o', 0, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f})
	// ... and the raw HeatmapResponse (13), bare and with a 1×2 raster.
	f.Add([]byte{13})
	rawRaster := make([]byte, 45+16)
	rawRaster[0], rawRaster[33], rawRaster[35] = 13, 1, 2
	putF64(rawRaster[45:], 1)
	putF64(rawRaster[53:], 2)
	f.Add(rawRaster)
	// The packed tuple frames (tags 33, 34 and 35): runs of both
	// encodings — fixed-point columns, IEEE columns for the bit patterns
	// only IEEE bits carry — empty runs, a run of width-0 columns that
	// declares more tuples than a frame may hold, and a cut one.
	special := []tuple.Raw{
		{T: math.NaN(), X: math.Copysign(0, -1), Y: math.Inf(1), S: math.Float64frombits(1)},
		{T: 3600.5, X: -1200.25, Y: 800, S: 421.5},
	}
	add(IngestRequest{Pollutant: 2, Tuples: special})
	add(IngestRequest{Pollutant: 1})
	add(ReplicaIngest{Origin: 3, Pollutant: 1, Seq: 1 << 40, Tuples: special, Incarnation: 5})
	add(ReplicaCatchupResponse{Snapshot: true, Done: true, From: 9, Tuples: special, Incarnation: 5})
	add(ReplicaCatchupResponse{Done: true, From: 9})
	equal, _ := Binary.Encode(IngestRequest{Pollutant: 1, Tuples: []tuple.Raw{{T: 7, X: 7, Y: 7, S: 7}, {T: 7, X: 7, Y: 7, S: 7}}})
	huge := bytes.Clone(equal)
	huge[2], huge[3], huge[4], huge[5] = 0xFF, 0xFF, 0xFF, 0xFF
	f.Add(huge)
	f.Add(equal[:len(equal)-3])
	// The retired raw tuple frames: IngestRequest (10), ReplicaIngest (21)
	// and ReplicaCatchupResponse (23), each of one tuple.
	rawTuple := func(head ...byte) []byte {
		b := append(head, make([]byte, 32)...)
		putF64(b[len(head):], 1)
		return b
	}
	f.Add(rawTuple(10, 1, 1, 0, 0, 0))
	f.Add(rawTuple(21, 1, 0, 2, 41, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0))
	f.Add(rawTuple(23, 2, 12, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0))
	// Lent request bodies inside the routing wrappers.
	add(Forwarded{Inner: IngestRequest{Pollutant: 1, Tuples: []tuple.Raw{{T: 1, X: 2, Y: 3, S: 4}}}, Epoch: 2})
	add(ReplicaRead{Origin: 1, Inner: BatchQueryRequest{Items: []QueryRequest{{T: 1, X: 2, Y: 3}}}})

	f.Fuzz(func(t *testing.T, data []byte) {
		data = bytes.Clone(data) // the target overwrites it below; the engine's copy must stay
		m1, err1 := Binary.Decode(data)
		m2, err2 := Binary.Decode(data)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("unstable outcome: %v vs %v", err1, err2)
		}
		// The lent decoder is the same decoder: the same outcome, and the
		// same message.
		lent, errLent := Binary.DecodeLent(data)
		if (errLent == nil) != (err1 == nil) {
			t.Fatalf("DecodeLent: %v, Decode: %v", errLent, err1)
		}
		if err1 == nil {
			enc, err := Binary.Encode(m1)
			sameAsDecode := func(lent Message, when string) {
				if encLent, errLent := Binary.Encode(lent); (err == nil) != (errLent == nil) || !bytes.Equal(enc, encLent) {
					t.Fatalf("%T: DecodeLent's message %s encodes differently (%v, %v)", m1, when, err, errLent)
				}
			}
			sameAsDecode(lent, "into fresh memory")
			// Give everything back, as an acknowledged exchange does, and
			// soil it where it lies in the pools: the next lent decode of
			// the frame gets that memory back and must overwrite all of it.
			Recycle(lent, IngestResponse{})
			soil(lent)
			again, errAgain := Binary.DecodeLent(data)
			if errAgain != nil {
				t.Fatalf("%T: a second DecodeLent failed: %v", m1, errAgain)
			}
			sameAsDecode(again, "into recycled memory")
			Recycle(again, IngestResponse{})
		}
		if err1 != nil {
			if err1.Error() != err2.Error() {
				t.Fatalf("unstable error: %q vs %q", err1, err2)
			}
		} else {
			// Every message the decoder accepts must be encodable (the
			// decoder's bounds are stricter than the encoder's), and the
			// encoded form must be a fixed point — NaN payloads make a
			// byte-level comparison the only reliable equality.
			enc1, err := Binary.Encode(m1)
			if err != nil {
				t.Fatalf("accepted message %T does not re-encode: %v", m1, err)
			}
			if encB, err := Binary.Encode(m2); err != nil || !bytes.Equal(enc1, encB) {
				t.Fatalf("unstable decode of %T (%v)", m1, err)
			}
			m3, err := Binary.Decode(enc1)
			if err != nil {
				t.Fatalf("re-encoded %T does not decode: %v", m1, err)
			}
			enc2, err := Binary.Encode(m3)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc1, enc2) {
				t.Fatalf("%T: encode/decode not a fixed point", m1)
			}
			// enc1 is m1's deep copy (byte equality is the only equality
			// that survives NaN payloads): scribbling over the input must
			// leave m1 encoding to it.
			scribble(data)
			if enc, err := Binary.Encode(m1); err != nil || !bytes.Equal(enc, enc1) {
				t.Fatalf("%T aliases the bytes it was decoded from (%v)", m1, err)
			}
			prefix := []byte{0xA5, 0xA5, 0xA5}
			app, err := Binary.AppendEncode(prefix, m1)
			if err != nil || !bytes.Equal(app[:3], prefix) || !bytes.Equal(app[3:], enc1) {
				t.Fatalf("%T: AppendEncode(prefix) differs from prefix + Encode (%v)", m1, err)
			}
			if resp, ok := m1.(ModelResponse); ok {
				checkCoverRoundTrip(t, resp, enc1)
			}
		}
	})
}

// soil writes junk over the bulk a lent decode put in m — every kind
// DecodeLent lends — as a borrower of the pools may leave it.
func soil(m Message) {
	switch v := m.(type) {
	case BatchQueryRequest:
		for i := range v.Items {
			v.Items[i] = QueryRequest{T: -1, X: -1, Y: -1, Pollutant: 0xEE}
		}
	case IngestRequest:
		soilTuples(v.Tuples)
	case ReplicaIngest:
		soilTuples(v.Tuples)
	case Forwarded:
		soil(v.Inner)
	case ReplicaRead:
		soil(v.Inner)
	case BatchQueryResponse:
		for i := range v.Items {
			v.Items[i] = FailedItem(CodeSaturated, "stale")
		}
	case HeatmapResponse:
		for i := range v.Values {
			v.Values[i] = -1
		}
	}
}

func soilTuples(b []tuple.Raw) {
	for i := range b {
		b[i] = tuple.Raw{T: -1, X: -1, Y: -1, S: -1}
	}
}

// checkCoverRoundTrip converts a decoded model response, whose encoding
// is enc, to a cover and back: a response the cover cannot hold must be
// refused with an error, and any other must come back field-equal —
// compared as encodings, the one equality NaN payloads survive.
func checkCoverRoundTrip(t *testing.T, resp ModelResponse, enc []byte) {
	t.Helper()
	cv, err := CoverFromModelResponse(resp)
	if err != nil {
		return
	}
	back, err := ModelResponseFromCover(cv)
	if err != nil {
		t.Fatalf("a cover from an accepted response does not convert back: %v", err)
	}
	if got, err := Binary.Encode(back); err != nil || !bytes.Equal(got, enc) {
		t.Fatalf("model response changed through a cover (%v)", err)
	}
}
