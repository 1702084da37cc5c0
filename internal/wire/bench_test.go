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
