package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/kmeans"
	"repro/internal/regress"
	"repro/internal/tuple"
)

func sampleMessages() []Message {
	return []Message{
		QueryRequest{T: 123.5, X: -45.25, Y: 900, Pollutant: tuple.PM},
		QueryResponse{Value: 512.75},
		ModelRequest{T: 42, Pollutant: tuple.CO},
		ModelResponse{
			ValidFrom:  100,
			ValidUntil: 200,
			Pollutant:  0,
			Features:   "linear-xyt",
			Centroids:  []geo.Point{{X: 1, Y: 2}, {X: 3, Y: 4}},
			Coefs:      [][]float64{{400, 0.1, 0.2, 0.3}, {500, -0.1, -0.2, -0.3}},
		},
		ErrorResponse{Msg: "window 3 is empty"},
		BatchQueryRequest{Items: []QueryRequest{
			{T: 60, X: 1, Y: 2, Pollutant: tuple.CO2},
			{T: 120, X: 3, Y: 4, Pollutant: tuple.PM},
		}},
		BatchQueryResponse{Items: []BatchQueryItem{
			{Value: 417.25},
			{Err: "query: time outside retained data windows"},
			{Value: 90.5},
		}},
	}
}

func TestRoundTrip(t *testing.T) {
	for _, m := range sampleMessages() {
		data, err := Binary.Encode(m)
		if err != nil {
			t.Fatalf("encode %T: %v", m, err)
		}
		got, err := Binary.Decode(data)
		if err != nil {
			t.Fatalf("decode %T: %v", m, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("round trip %T: got %+v, want %+v", m, got, m)
		}
	}
}

func TestBinaryQueryRequestSize(t *testing.T) {
	// Query tuples ride on every position update; their size is the
	// baseline method's per-query uplink cost. 1 tag + 3 float64s +
	// 1 pollutant byte.
	data, err := Binary.Encode(QueryRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 26 {
		t.Errorf("QueryRequest = %d bytes, want 26", len(data))
	}
	data, err = Binary.Encode(QueryResponse{})
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 9 {
		t.Errorf("QueryResponse = %d bytes, want 9", len(data))
	}
}

func TestBinaryDecodeErrors(t *testing.T) {
	tests := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"unknown tag", []byte{0xEE, 0, 0}},
		{"short query request", []byte{byte(TypeQueryRequest), 1, 2}},
		{"long query response", make([]byte, 50)},
		{"short model response", []byte{byte(TypeModelResponse), 1}},
		{"short error", []byte{byte(TypeError), 9}},
		{"untagged 25-byte query request", make([]byte, 25)},
		{"untagged 9-byte model request", make([]byte, 9)},
	}
	// Give the sized cases their tags. The pre-v1 untagged layouts (no
	// pollutant byte) are no longer a second accepted length.
	tests[3].data[0] = byte(TypeQueryResponse)
	tests[6].data[0] = byte(TypeQueryRequest)
	tests[7].data[0] = byte(TypeModelRequest)
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Binary.Decode(tt.data); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestBinaryModelResponseTruncation(t *testing.T) {
	m := sampleMessages()[3]
	data, err := Binary.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	// Every strict prefix must fail to decode, never panic.
	for cut := 1; cut < len(data); cut++ {
		if _, err := Binary.Decode(data[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
	}
	// Trailing garbage must also fail.
	if _, err := Binary.Decode(append(append([]byte{}, data...), 0x00)); err == nil {
		t.Error("trailing byte accepted")
	}
}

func TestEncodeMismatchedModelResponse(t *testing.T) {
	m := ModelResponse{
		Centroids: []geo.Point{{X: 1, Y: 2}},
		Coefs:     [][]float64{{1}, {2}},
	}
	if _, err := Binary.Encode(m); err == nil {
		t.Error("expected centroid/coef mismatch error")
	}
}

func TestCoverRoundTripThroughWire(t *testing.T) {
	// Build a real cover, ship it, reconstruct it, and verify the client
	// side interpolates identically to the server side — the property the
	// model-cache correctness rests on.
	rng := rand.New(rand.NewSource(1))
	w := make(tuple.Batch, 300)
	for i := range w {
		x, y := rng.Float64()*3000, rng.Float64()*3000
		w[i] = tuple.Raw{T: rng.Float64() * 600, X: x, Y: y, S: 420 + 0.05*x - 0.02*y}
	}
	cv, err := core.BuildCover(w, 0, 600, core.Config{Cluster: kmeans.Config{Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ModelResponseFromCover(cv)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ValidUntil != cv.ValidUntil {
		t.Errorf("t_n = %v, want %v", resp.ValidUntil, cv.ValidUntil)
	}
	// Through the binary codec.
	data, err := Binary.Encode(resp)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := Binary.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	clientCover, err := CoverFromModelResponse(decoded.(ModelResponse))
	if err != nil {
		t.Fatal(err)
	}
	if clientCover.Size() != cv.Size() {
		t.Fatalf("client cover size %d, want %d", clientCover.Size(), cv.Size())
	}
	for trial := 0; trial < 50; trial++ {
		qt, qx, qy := rng.Float64()*600, rng.Float64()*3000, rng.Float64()*3000
		sv, err1 := cv.Interpolate(qt, qx, qy)
		lv, err2 := clientCover.Interpolate(qt, qx, qy)
		if err1 != nil || err2 != nil {
			t.Fatalf("interpolate errors: %v %v", err1, err2)
		}
		if math.Abs(sv-lv) > 1e-12 {
			t.Fatalf("server %v vs client %v", sv, lv)
		}
	}
}

func TestCoverFromModelResponseErrors(t *testing.T) {
	if _, err := CoverFromModelResponse(ModelResponse{}); err == nil {
		t.Error("empty response should error")
	}
	bad := ModelResponse{
		Features:  "no-such-family",
		Centroids: []geo.Point{{}},
		Coefs:     [][]float64{{1}},
	}
	if _, err := CoverFromModelResponse(bad); err == nil {
		t.Error("unknown family should error")
	}
	mismatch := ModelResponse{
		Features:  "constant",
		Centroids: []geo.Point{{}},
		Coefs:     [][]float64{{1, 2, 3}},
	}
	if _, err := CoverFromModelResponse(mismatch); err == nil {
		t.Error("wrong coefficient count should error")
	}
	short := ModelResponse{
		Features:  "constant",
		Centroids: []geo.Point{{}, {}},
		Coefs:     [][]float64{{1}},
	}
	if _, err := CoverFromModelResponse(short); err == nil {
		t.Error("centroid/coef mismatch should error")
	}
}

func TestModelResponseFromCoverErrors(t *testing.T) {
	if _, err := ModelResponseFromCover(nil); err == nil {
		t.Error("nil cover should error")
	}
	if _, err := ModelResponseFromCover(&core.Cover{}); err == nil {
		t.Error("empty cover should error")
	}
	one := []geo.Point{{}}
	if _, err := ModelResponseFromCover(&core.Cover{Centroids: one, Coefs: []float64{1}}); err == nil {
		t.Error("cover without a feature family should error")
	}
	custom := &core.Cover{Features: customFeatures{}, Centroids: one, Coefs: []float64{1}}
	if _, err := ModelResponseFromCover(custom); err == nil {
		t.Error("family the wire does not know should error")
	}
	short := &core.Cover{Features: regress.LinearXY, Centroids: one, Coefs: []float64{1, 2}}
	if _, err := ModelResponseFromCover(short); err == nil {
		t.Error("wrong coefficient count should error")
	}
}

// customFeatures is a model family the wire has no name for.
type customFeatures struct{}

func (customFeatures) Dim() int                            { return 1 }
func (customFeatures) Name() string                        { return "custom" }
func (customFeatures) Eval(dst []float64, _, _, _ float64) { dst[0] = 1 }

// flatCover is a hand-made cover of k linear-xyt regions.
func flatCover(k int) *core.Cover {
	d := regress.LinearXYT.Dim()
	cv := &core.Cover{
		ValidFrom: 0, ValidUntil: 3600, ValueLo: 300, ValueHi: 900,
		Features:  regress.LinearXYT,
		Centroids: make([]geo.Point, k),
		Coefs:     make([]float64, k*d),
	}
	for j := range cv.Centroids {
		cv.Centroids[j] = geo.Point{X: float64(100 * j), Y: float64(7 * j)}
		copy(cv.Coefs[j*d:], []float64{400 + float64(j), 0.01, -0.02, 0.001})
	}
	return cv
}

// TestModelResponseAllocsIndependentOfRegions: a model download costs the
// same few allocations whatever the cover's size — in the server's
// conversion, in the decoder and in the client's conversion — and neither
// conversion leaves the result sharing memory with its input.
func TestModelResponseAllocsIndependentOfRegions(t *testing.T) {
	for _, k := range []int{2, 64} {
		cv := flatCover(k)
		var resp ModelResponse
		toResp := testing.AllocsPerRun(20, func() {
			var err error
			if resp, err = ModelResponseFromCover(cv); err != nil {
				t.Fatal(err)
			}
		})
		frame, err := Binary.Encode(resp)
		if err != nil {
			t.Fatal(err)
		}
		decode := testing.AllocsPerRun(20, func() {
			if _, err := Binary.Decode(frame); err != nil {
				t.Fatal(err)
			}
		})
		var back *core.Cover
		toCover := testing.AllocsPerRun(20, func() {
			if back, err = CoverFromModelResponse(resp); err != nil {
				t.Fatal(err)
			}
		})
		// Centroids, coefficient headers, one coefficient array; the
		// decoder adds the boxed message and the family name; the cover is
		// the Cover, its centroids and its coefficients.
		if toResp != 3 || decode != 5 || toCover != 3 {
			t.Errorf("%d regions: %.0f allocs from the cover, %.0f decoding, %.0f back to a cover; want 3, 5, 3",
				k, toResp, decode, toCover)
		}
		want := coverBytes(cv)
		resp.Centroids[0].X++
		resp.Coefs[k-1][0]++
		if !bytes.Equal(coverBytes(cv), want) {
			t.Errorf("%d regions: writing the response changed the cover", k)
		}
		if !bytes.Equal(coverBytes(back), want) {
			t.Errorf("%d regions: the cover back from the wire differs, or follows writes to the response", k)
		}
	}
}

// coverBytes is a cover's centroids and coefficients as one byte string.
func coverBytes(cv *core.Cover) []byte {
	var b []byte
	for _, c := range cv.Centroids {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c.X))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c.Y))
	}
	for _, c := range cv.Coefs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c))
	}
	return b
}

func TestUnknownMessageEncode(t *testing.T) {
	type fake struct{ Message }
	if _, err := Binary.Encode(fake{}); !errors.Is(err, ErrUnknown) {
		t.Errorf("want ErrUnknown, got %v", err)
	}
}

func TestBatchQueryMalformedBinary(t *testing.T) {
	good, err := Binary.Encode(BatchQueryRequest{Items: []QueryRequest{{T: 1, X: 2, Y: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"request truncated header", []byte{byte(TypeBatchQueryRequest), 1}},
		{"request short items", good[:len(good)-5]},
		{"request trailing bytes", append(append([]byte{}, good...), 0xAA)},
		{"response truncated header", []byte{byte(TypeBatchQueryResponse), 1}},
		{"response bad flag", []byte{byte(TypeBatchQueryResponse), 1, 0, 7, 0, 0, 0, 0, 0, 0, 0, 0}},
		{"response short value", []byte{byte(TypeBatchQueryResponse), 1, 0, 0, 1, 2}},
		{"response short error", []byte{byte(TypeBatchQueryResponse), 1, 0, 1, 9, 0, 'x'}},
	} {
		if _, err := Binary.Decode(tc.data); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: got %v, want ErrMalformed", tc.name, err)
		}
	}
}

func TestBatchQueryEncodeBounds(t *testing.T) {
	big := BatchQueryRequest{Items: make([]QueryRequest, MaxBatchItems+1)}
	if _, err := Binary.Encode(big); err == nil {
		t.Error("oversized batch request must not encode")
	}
	bigResp := BatchQueryResponse{Items: make([]BatchQueryItem, MaxBatchItems+1)}
	if _, err := Binary.Encode(bigResp); err == nil {
		t.Error("oversized batch response must not encode")
	}
}

func TestBatchQueryBinaryCompact(t *testing.T) {
	// One batch frame must cost less than its requests sent one by one
	// (the point of batching on a constrained link): at most 3 + 28n
	// bytes, and here far fewer, versus n 26-byte frames.
	items := make([]QueryRequest, 40)
	for i := range items {
		items[i] = QueryRequest{T: float64(i), X: 1, Y: 2, Pollutant: tuple.CO2}
	}
	batch, err := Binary.Encode(BatchQueryRequest{Items: items})
	if err != nil {
		t.Fatal(err)
	}
	single, err := Binary.Encode(items[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) >= len(items)*len(single) {
		t.Errorf("batch frame %dB not smaller than %d single frames (%dB)",
			len(batch), len(items), len(items)*len(single))
	}
}
