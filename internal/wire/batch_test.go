package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/sim"
	"repro/internal/tuple"
)

// coverRoute is a commuter's 100-point route read of windowCover, laid
// out as the end-to-end benchmark lays out its route reads — points 25 m
// apart along a bus line, each jittered by up to ±30 m, all at one time
// of the window and for CO2 — and its answer, the cover's values there.
func coverRoute(tb testing.TB) (BatchQueryRequest, BatchQueryResponse) {
	tb.Helper()
	cv, _ := windowCover(tb)
	line := sim.DefaultLausanne(1).Vehicles[0].Route
	rng := rand.New(rand.NewSource(1))
	at, t := rng.Float64()*line.Length(), 3600+3600*rng.Float64()
	req := BatchQueryRequest{Items: make([]QueryRequest, 100)}
	resp := BatchQueryResponse{Items: make([]BatchQueryItem, 100)}
	for i := range req.Items {
		pos := line.AtLoop(at + 25*float64(i))
		q := QueryRequest{T: t, X: pos.X + 60*(rng.Float64()-0.5), Y: pos.Y + 60*(rng.Float64()-0.5), Pollutant: tuple.CO2}
		v, err := cv.Interpolate(q.T, q.X, q.Y)
		if err != nil {
			tb.Fatal(err)
		}
		req.Items[i], resp.Items[i] = q, BatchQueryItem{Value: v}
	}
	return req, resp
}

// The coded sizes of coverRoute's request and answer; the fixed-width
// layouts took 3 + 25·100 = 2 503 and 3 + 9·100 = 903 bytes.
const (
	coverRouteRequestBytes = 1_445
	coverRouteAnswerBytes  = 675
)

// TestBatchFrameBytes pins what a route costs on the wire: a cover's
// route read and its answer stay within 10 % of what they were recorded
// at, random bit patterns within BatchRequestFrameBytes, and a route of
// one repeated point costs its counts and its first point.
func TestBatchFrameBytes(t *testing.T) {
	size := func(m Message) int {
		t.Helper()
		enc, err := Binary.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		return len(enc)
	}
	req, resp := coverRoute(t)
	gotReq, gotResp := size(req), size(resp)
	t.Logf("100-point route: request %d B (recorded %d, fixed-width 2 503), answer %d B (recorded %d, fixed-width 903)",
		gotReq, coverRouteRequestBytes, gotResp, coverRouteAnswerBytes)
	if gotReq > coverRouteRequestBytes*11/10 || gotResp > coverRouteAnswerBytes*11/10 {
		t.Errorf("route request %d B, answer %d B: over %d and %d B + 10 %%", gotReq, gotResp, coverRouteRequestBytes, coverRouteAnswerBytes)
	}

	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 7, 100} {
		random := BatchQueryRequest{Items: make([]QueryRequest, n)}
		repeated := BatchQueryRequest{Items: make([]QueryRequest, n)}
		for i := range random.Items {
			random.Items[i] = QueryRequest{
				T: math.Float64frombits(rng.Uint64()), X: math.Float64frombits(rng.Uint64()), Y: math.Float64frombits(rng.Uint64()),
				Pollutant: tuple.Pollutant(255 * (i & 1)),
			}
			repeated.Items[i] = QueryRequest{T: 5400, X: 1200, Y: 800, Pollutant: tuple.PM}
		}
		if got := size(random); got > BatchRequestFrameBytes(n) || BatchRequestFrameBytes(n) != 3+28*n {
			t.Errorf("%d random points: %d B, worst case %d (want 3 + 28 B a point)", n, got, BatchRequestFrameBytes(n))
		}
		// Only the first point is predicted from nothing: T, X and Y take 8
		// bytes each, the pollutant 1 (PM is 2, zigzagged 4).
		if want := 3 + 2*n + 25*min(n, 1); size(repeated) != want {
			t.Errorf("%d repeated points: %d B, want %d", n, size(repeated), want)
		}
	}
}

// batchSeeds are the bit patterns a batch's coding must carry exactly
// (rasterSeeds), as fuzz bytes.
func batchSeeds() []byte {
	b := make([]byte, 8*len(rasterSeeds))
	for i, v := range rasterSeeds {
		putF64(b[8*i:], v)
	}
	return b
}

// FuzzBatchRoundTrip reads the fuzz bytes as float64 bit patterns and
// pollutant bytes (repeating them as needed) for n route points, and as
// n answers, each a value or a failure — typed, untyped, or a value item
// whose empty text reads as no failure — as the fuzz bytes choose. Every
// request must encode within BatchRequestFrameBytes, every answer within
// its fixed-width size plus a count nibble an item and two index bytes a
// failure, and both must decode bit for bit, into fresh memory, into lent
// memory and into a lend a borrower left soiled, to frames that are fixed
// points of decode/encode.
func FuzzBatchRoundTrip(f *testing.F) {
	f.Add(uint8(17), batchSeeds())
	f.Add(uint8(4), batchSeeds()[:40])
	f.Add(uint8(100), []byte{0x40, 0x8f, 0x40, 0, 0, 0, 0, 0, 1, 2, 3})
	f.Add(uint8(3), []byte{0xff})
	f.Add(uint8(0), []byte{})
	f.Add(uint8(5), []byte{})

	f.Fuzz(func(t *testing.T, n uint8, data []byte) {
		word := func(i int) uint64 {
			if len(data) == 0 {
				return 0
			}
			var w uint64
			for j := range 8 {
				w |= uint64(data[(8*i+j)%len(data)]) << (8 * j)
			}
			return w
		}
		req := BatchQueryRequest{Items: make([]QueryRequest, n)}
		resp := BatchQueryResponse{Items: make([]BatchQueryItem, n)}
		respSize := 3
		for i := range req.Items {
			req.Items[i] = QueryRequest{
				T: math.Float64frombits(word(4 * i)), X: math.Float64frombits(word(4*i + 1)), Y: math.Float64frombits(word(4*i + 2)),
				Pollutant: tuple.Pollutant(word(4*i + 3)),
			}
			choice, v := word(4*i+3)>>8, math.Float64frombits(word(4*i+1))
			text := "failed: " + string(rune('a'+choice%26))
			switch choice % 5 {
			case 0:
				resp.Items[i] = FailedItem(ErrCode(2+choice%11), text)
			case 1:
				resp.Items[i] = FailedItem(CodeNone, text)
			case 2:
				resp.Items[i] = BatchQueryItem{Value: v, Err: ""}
			default:
				resp.Items[i] = BatchQueryItem{Value: v}
			}
			if resp.Items[i].Err != "" {
				respSize += 3 + len(text)
			} else {
				respSize += 9
			}
		}
		for _, m := range []Message{req, resp} {
			enc, err := Binary.Encode(m)
			if err != nil {
				t.Fatal(err)
			}
			limit := BatchRequestFrameBytes(int(n))
			if _, ok := m.(BatchQueryResponse); ok {
				limit = respSize + countBytes(int(n)) + 2*failures(resp)
			}
			if len(enc) > limit {
				t.Fatalf("%T of %d items: %d B, over %d", m, n, len(enc), limit)
			}
			sameBits := func(got Message, how string) {
				t.Helper()
				if !sameBatch(got, m) {
					t.Fatalf("%s: %T decoded to %#v, sent %#v", how, m, got, m)
				}
				if re, err := Binary.Encode(got); err != nil || !bytes.Equal(re, enc) {
					t.Fatalf("%s: %T frame is not a fixed point of decode/encode (%v)", how, m, err)
				}
			}
			dec, err := Binary.Decode(enc)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(dec, "Decode")
			lent, err := Binary.DecodeLent(enc)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(lent, "DecodeLent")
			Recycle(lent, nil)
			soil(lent)
			again, err := Binary.DecodeLent(enc)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(again, "DecodeLent into a soiled lend")
			Recycle(again, nil)
		}
	})
}

// failures counts the failed items of m.
func failures(m BatchQueryResponse) int {
	n := 0
	for _, it := range m.Items {
		if it.Err != "" {
			n++
		}
	}
	return n
}

// sameBatch reports whether got is want bit for bit: every float by its
// IEEE bits, so that NaN payloads and −0 count.
func sameBatch(got, want Message) bool {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	switch w := want.(type) {
	case BatchQueryRequest:
		g, ok := got.(BatchQueryRequest)
		if !ok || len(g.Items) != len(w.Items) {
			return false
		}
		for i, q := range w.Items {
			if p := g.Items[i]; !same(p.T, q.T) || !same(p.X, q.X) || !same(p.Y, q.Y) || p.Pollutant != q.Pollutant {
				return false
			}
		}
		return true
	case BatchQueryResponse:
		g, ok := got.(BatchQueryResponse)
		if !ok || len(g.Items) != len(w.Items) {
			return false
		}
		for i, it := range w.Items {
			if p := g.Items[i]; !same(p.Value, it.Value) || p.Err != it.Err {
				return false
			}
		}
		return true
	}
	return false
}

// TestBatchRefusals: a frame the encoder would not write is refused — a
// count over 8, a residual longer than it needs, a pollutant that is not
// a byte, a set padding nibble, a failure out of order or range, without
// a status or text, or over a value residual, anything cut short, a
// trailing byte — so every accepted frame is a fixed point of
// decode/encode.
func TestBatchRefusals(t *testing.T) {
	// One point at (0, 0, 0) for PM: every count 0 but the pollutant's,
	// 1 (PM is 2, zigzagged 4).
	request := []byte{byte(TypeBatchQueryRequest), 1, 0, 0x00, 0x10, 0x04}
	// Three answers: the smallest positive subnormal (residual 2), a
	// typed failure at index 1, and the same value again (residual 0).
	answer := []byte{byte(TypeBatchQueryResponse), 3, 0, 0x01, 0x00, 0x02, 1, 0, byte(CodeNoCover), 1, 0, 'x'}
	for _, good := range [][]byte{request, answer} {
		m, err := Binary.Decode(good)
		if err != nil {
			t.Fatal(err)
		}
		if re, err := Binary.Encode(m); err != nil || !bytes.Equal(re, good) {
			t.Fatalf("%x decodes to %#v, which encodes to %x (%v)", good, m, re, err)
		}
	}
	sub := math.Float64frombits(1)
	if m, _ := Binary.Decode(answer); !sameBatch(m, BatchQueryResponse{Items: []BatchQueryItem{{Value: sub}, FailedItem(CodeNoCover, "x"), {Value: sub}}}) {
		t.Fatalf("answer decodes to %#v", m)
	}
	edit := func(frame []byte, at int, b ...byte) []byte {
		out := bytes.Clone(frame[:at])
		return append(append(out, b...), frame[at:]...)
	}
	set := func(frame []byte, at int, b byte) []byte {
		out := bytes.Clone(frame)
		out[at] = b
		return out
	}
	for name, frame := range map[string][]byte{
		"request header cut":            request[:2],
		"request counts cut":            request[:4],
		"request residual cut":          request[:5],
		"request trailing byte":         append(bytes.Clone(request), 7),
		"request count over 8":          append(set(request, 4, 0x90), 1, 2, 3, 4, 5, 6, 7, 8),
		"request residual not minimal":  edit(set(request, 4, 0x20), 6, 0),
		"request pollutant over 255":    append(set(request, 4, 0x20)[:5], 0x00, 0x02),
		"request pollutant below 0":     set(request, 5, 0x03),
		"request claims two points":     set(request, 1, 2),
		"answer header cut":             answer[:2],
		"answer counts cut":             answer[:4],
		"answer count over 8":           edit(set(answer, 3, 0x09), 6, 1, 2, 3, 4, 5, 6, 7, 8),
		"answer residual not minimal":   edit(set(answer, 3, 0x02), 6, 0),
		"answer padding nibble":         set(answer, 4, 0x10),
		"answer failure header cut":     answer[:len(answer)-3],
		"answer failure text cut":       answer[:len(answer)-1],
		"answer failure without status": set(answer, 8, 0),
		"answer failure without text":   set(answer, 9, 0)[:11],
		"answer failure over a value":   set(answer, 6, 0),
		"answer failure out of range":   set(answer, 6, 3),
		"answer failures out of order":  append(bytes.Clone(answer), 0, 0, 1, 1, 0, 'y'),
		"answer failure repeated":       append(bytes.Clone(answer), 1, 0, 1, 1, 0, 'y'),
		"answer trailing byte":          append(bytes.Clone(answer), 7),
	} {
		for _, decode := range []func([]byte) (Message, error){Binary.Decode, Binary.DecodeLent} {
			if m, err := decode(frame); !errors.Is(err, ErrMalformed) {
				t.Errorf("%s: %x decoded to %#v, %v", name, frame, m, err)
			}
		}
	}
}

// TestOversizedBatchClaimAllocatesNothing: frames of a few bytes that
// claim 65 535 points or answers are refused before anything is
// allocated — short of their counts, and with their counts but claiming
// residuals past the frame.
func TestOversizedBatchClaimAllocatesNothing(t *testing.T) {
	var frames [][]byte
	for _, tag := range []MsgType{TypeBatchQueryRequest, TypeBatchQueryResponse} {
		short := []byte{byte(tag), 0xFF, 0xFF, 0x88, 0x88, 0x88}
		counts := make([]byte, 3+2*MaxBatchItems)
		counts[0] = byte(tag)
		binary.LittleEndian.PutUint16(counts[1:], MaxBatchItems)
		for i := 3; i < len(counts); i++ {
			counts[i] = 0x88
		}
		frames = append(frames, short, counts)
	}
	for _, frame := range frames {
		for _, decode := range []func([]byte) (Message, error){Binary.Decode, Binary.DecodeLent} {
			var err error
			if allocs := testing.AllocsPerRun(100, func() { _, err = decode(frame) }); allocs != 0 {
				t.Errorf("refusing a %d-byte tag-%d frame allocated %.0f times", len(frame), frame[0], allocs)
			}
			if !errors.Is(err, ErrMalformed) {
				t.Errorf("decode = %v, want ErrMalformed", err)
			}
		}
	}
}

// BenchmarkBatchCodec100 encodes coverRoute's request and answer into
// reused buffers and decodes each into lent memory, as a client sending a
// route and the node answering it do between them.
func BenchmarkBatchCodec100(b *testing.B) {
	req, resp := coverRoute(b)
	var reqBuf, respBuf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if reqBuf, err = Binary.AppendEncode(reqBuf[:0], req); err != nil {
			b.Fatal(err)
		}
		in, err := Binary.DecodeLent(reqBuf)
		if err != nil {
			b.Fatal(err)
		}
		if respBuf, err = Binary.AppendEncode(respBuf[:0], resp); err != nil {
			b.Fatal(err)
		}
		out, err := Binary.DecodeLent(respBuf)
		if err != nil {
			b.Fatal(err)
		}
		Recycle(in, out)
	}
	b.ReportMetric(float64(len(reqBuf)+len(respBuf)), "B/route")
}
