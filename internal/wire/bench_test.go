package wire

import (
	"testing"

	"repro/internal/geo"
)

func benchModelResponse() ModelResponse {
	m := ModelResponse{
		ValidFrom:  0,
		ValidUntil: 14400,
		Features:   "linear-t",
	}
	for i := 0; i < 40; i++ {
		m.Centroids = append(m.Centroids, geo.Point{X: float64(i * 100), Y: float64(i * 70)})
		m.Coefs = append(m.Coefs, []float64{400 + float64(i), 0.001})
	}
	return m
}

func BenchmarkBinaryEncodeModelResponse(b *testing.B) {
	m := benchModelResponse()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Binary.Encode(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBinaryDecodeModelResponse(b *testing.B) {
	data, err := Binary.Encode(benchModelResponse())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Binary.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUploadCodec256 is a gateway's upload on the wire: 256 of the
// benchmark fleet's tuples, encoded into a reused buffer (the sender's
// side) and decoded into lent tuples (the receiver's).
func BenchmarkUploadCodec256(b *testing.B) {
	var m Message = IngestRequest{Pollutant: 1, Tuples: fleetStream()[256:512]}
	frame, err := Binary.Encode(m)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		buf := make([]byte, 0, KeepBytes)
		b.ReportAllocs()
		for b.Loop() {
			if buf, err = Binary.AppendEncode(buf[:0], m); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(frame)), "frame_B")
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			dec, err := Binary.DecodeLent(frame)
			if err != nil {
				b.Fatal(err)
			}
			Recycle(dec, IngestResponse{})
		}
	})
}
