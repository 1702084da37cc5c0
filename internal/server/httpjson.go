package server

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/heatmap"
	"repro/internal/query"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// jsonBuf is a response body under construction. The four answers the web
// interface asks for again and again — /v1/heatmap, /v1/models,
// /v1/query/continuous and /v1/ingest — are appended to it straight from
// the cover and the query results, byte for byte what json.NewEncoder(w).
// Encode writes for the same value (FuzzHTTPJSONParity holds them to it).
// Every other answer is encoded into it by encoding/json (writeJSON).
// Either way the whole body goes out in one Write, after the status.
type jsonBuf struct {
	b []byte
	// err is the first failure, as encoding/json reports it: the body is
	// then discarded and the request answered 500.
	err error
}

// keepJSONBytes is the largest body buffer kept for reuse: room for a
// 64×64 heatmap's ≈ 80 KB, while a rare larger raster's does not stay
// pinned to the pool.
const keepJSONBytes = 4 * wire.KeepBytes

var jsonBufs = sync.Pool{New: func() any { return new(jsonBuf) }}

func getJSONBuf() *jsonBuf { return jsonBufs.Get().(*jsonBuf) }

func putJSONBuf(o *jsonBuf) {
	if cap(o.b) > keepJSONBytes {
		return
	}
	o.b, o.err = o.b[:0], nil
	jsonBufs.Put(o)
}

// jsonContentType is every JSON answer's Content-Type value: one slice
// shared by all of them, where Header.Set would allocate one per request.
var jsonContentType = []string{"application/json"}

// send answers status with the body, or 500 with the error that failed
// it. Nothing reaches w before the body is complete.
func (o *jsonBuf) send(w http.ResponseWriter, status int) {
	if o.err != nil {
		writeError(w, http.StatusInternalServerError, o.err)
		return
	}
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_, _ = w.Write(o.b)
}

// Write makes the buffer encoding/json's destination (writeJSON).
func (o *jsonBuf) Write(p []byte) (int, error) {
	o.b = append(o.b, p...)
	return len(p), nil
}

func (o *jsonBuf) fail(err error) {
	if o.err == nil {
		o.err = err
	}
}

func (o *jsonBuf) raw(s string) { o.b = append(o.b, s...) }

func (o *jsonBuf) int(v int) { o.b = strconv.AppendInt(o.b, int64(v), 10) }

// num appends f as encoding/json writes a float64: the shortest 'f' form,
// or 'e' outside [1e-6, 1e21) with a one-digit exponent's leading zero
// dropped. NaN and ±Inf fail the body with encoding/json's error.
func (o *jsonBuf) num(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		o.fail(&json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)})
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(o.b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	o.b = b
}

// nums appends a []float64: null when nil, as encoding/json writes it.
func (o *jsonBuf) nums(vs []float64) {
	if vs == nil {
		o.raw("null")
		return
	}
	o.b = append(o.b, '[')
	for i, v := range vs {
		if i > 0 {
			o.b = append(o.b, ',')
		}
		o.num(v)
	}
	o.b = append(o.b, ']')
}

func (o *jsonBuf) point(p geo.Point) {
	o.raw(`{"X":`)
	o.num(p.X)
	o.raw(`,"Y":`)
	o.num(p.Y)
	o.b = append(o.b, '}')
}

const hexDigits = "0123456789abcdef"

// str appends s quoted as encoding/json's Encoder writes a string, HTML
// escaping on: control characters, '"', '\\', '<', '>' and '&' escaped,
// U+2028 and U+2029 escaped, invalid UTF-8 replaced by \ufffd.
func (o *jsonBuf) str(s string) {
	b := append(o.b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	o.b = append(b, '"')
}

// heatmap appends /v1/heatmap's answer: the raster g, cv's centroid
// markers at t, evaluated as they are written, and — when pe is not nil —
// the scope a dead node left out. As encoding/json writes
//
//	struct {
//		Grid    *heatmap.Grid            `json:"grid"`
//		Markers []heatmap.CentroidMarker `json:"markers"`
//		Partial *struct {
//			Dead        []int `json:"dead"`
//			StaleShards int   `json:"staleShards"`
//		} `json:"partial,omitempty"`
//	}
//
// with Markers = heatmap.Markers(cv, t), whose error, when it fails,
// fails the body.
func (o *jsonBuf) heatmap(g *heatmap.Grid, cv *core.Cover, t float64, pe *cluster.PartialError) {
	o.raw(`{"grid":`)
	if g == nil {
		o.raw("null")
	} else {
		o.raw(`{"Region":{"Min":`)
		o.point(g.Region.Min)
		o.raw(`,"Max":`)
		o.point(g.Region.Max)
		o.raw(`},"Cols":`)
		o.int(g.Cols)
		o.raw(`,"Rows":`)
		o.int(g.Rows)
		o.raw(`,"T":`)
		o.num(g.T)
		o.raw(`,"Values":`)
		o.nums(g.Values)
		o.b = append(o.b, '}')
	}
	o.raw(`,"markers":[`)
	first := true
	err := heatmap.EachMarker(cv, t, func(m heatmap.CentroidMarker) {
		if !first {
			o.b = append(o.b, ',')
		}
		first = false
		o.raw(`{"pos":`)
		o.point(m.Pos)
		o.raw(`,"value":`)
		o.num(m.Value)
		o.raw(`,"band":`)
		o.str(m.Band)
		o.b = append(o.b, '}')
	})
	if err != nil {
		o.err = err // reported before any encoding failure, as Markers' was
		return
	}
	o.b = append(o.b, ']')
	if pe != nil {
		o.raw(`,"partial":{"dead":`)
		if pe.Dead == nil {
			o.raw("null")
		} else {
			o.b = append(o.b, '[')
			for i, n := range pe.Dead {
				if i > 0 {
					o.b = append(o.b, ',')
				}
				o.int(n)
			}
			o.b = append(o.b, ']')
		}
		o.raw(`,"staleShards":`)
		o.int(pe.StaleShards)
		o.b = append(o.b, '}')
	}
	o.raw("}\n")
}

// model appends /v1/models' answer straight from the cover: what
// encoding/json writes for wire.ModelResponseFromCover(cv), without that
// copy of the cover's centroid and coefficient columns.
func (o *jsonBuf) model(cv *core.Cover) {
	f, err := wire.ModelFeatures(cv)
	if err != nil {
		o.fail(err)
		return
	}
	o.raw(`{"validFrom":`)
	o.num(cv.ValidFrom)
	o.raw(`,"validUntil":`)
	o.num(cv.ValidUntil)
	o.raw(`,"valueLo":`)
	o.num(cv.ValueLo)
	o.raw(`,"valueHi":`)
	o.num(cv.ValueHi)
	o.raw(`,"pollutant":`)
	o.int(int(uint8(cv.Pollutant)))
	o.raw(`,"features":`)
	o.str(f.Name())
	o.raw(`,"centroids":[`)
	for i, c := range cv.Centroids {
		if i > 0 {
			o.b = append(o.b, ',')
		}
		o.point(c)
	}
	o.raw(`],"coefs":[`)
	d := f.Dim()
	for j := range cv.Centroids {
		if j > 0 {
			o.b = append(o.b, ',')
		}
		o.nums(cv.Coefs[j*d : (j+1)*d])
	}
	o.raw("]}\n")
}

// continuous appends /v1/query/continuous's answer for pollutant pol's
// route results rs, every one a value (the handler refuses a route with a
// failed point first). As encoding/json writes
//
//	struct {
//		Values  []pointResponse `json:"values"`
//		Average float64         `json:"average"`
//		Band    string          `json:"band"`
//		Advice  string          `json:"advice"`
//	}
//
// with Values[i] = pointResponseFor(pol, rs[i].Value), and the average's
// band and advice.
func (o *jsonBuf) continuous(pol tuple.Pollutant, rs []query.BatchResult) {
	o.raw(`{"values":[`)
	var sum float64
	for i, r := range rs {
		if i > 0 {
			o.b = append(o.b, ',')
		}
		p := pointResponseFor(pol, r.Value)
		o.raw(`{"value":`)
		o.num(p.Value)
		o.raw(`,"pollutant":`)
		o.str(p.Pollutant)
		o.raw(`,"unit":`)
		o.str(p.Unit)
		o.raw(`,"band":`)
		o.str(p.Band)
		o.raw(`,"advice":`)
		o.str(p.Advice)
		o.b = append(o.b, '}')
		sum += r.Value
	}
	avg := sum / float64(len(rs))
	band := ClassifyFor(pol, avg)
	o.raw(`],"average":`)
	o.num(avg)
	o.raw(`,"band":`)
	o.str(band.String())
	o.raw(`,"advice":`)
	o.str(band.Advice())
	o.raw("}\n")
}

// ingested appends /v1/ingest's acknowledgement of n tuples, as
// encoding/json writes map[string]int{"ingested": n}.
func (o *jsonBuf) ingested(n int) {
	o.raw(`{"ingested":`)
	o.int(n)
	o.raw("}\n")
}
