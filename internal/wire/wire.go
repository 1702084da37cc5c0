// Package wire defines the client↔server protocol of the EnviroMeter
// framework (§2.2–2.3): the query tuples a mobile object transmits, the
// interpolated values the server returns, and the model request/response
// pair that ships the whole model cover (t_n, µ, M) to model-cache
// clients.
//
// There is one codec, the compact binary one the bandwidth experiment
// (Figure 7b) uses — every byte matters on GPRS/3G. The web interface
// speaks JSON over HTTP and marshals these structs directly where it needs
// them.
//
// Every message has exactly one layout, and every field of it always
// travels. There is no version negotiation: the nodes of a ring and the
// clients that talk to them run the same protocol. A frame whose length
// does not fit its tag's layout is refused, and a retired tag — 6, 7, 10,
// 13, 14, 15, 19, 20, 21, 22 or 23 — decodes as ErrUnknown, so no frame is
// read as something it was not. Tuples have one layout on every hop: an
// upload, a forwarded upload leg and a replica frame carry them as one
// packed run, the column coding of a checkpoint block (tuples.go).
//
// Binary.AppendEncode is the one encoder: it appends a message to a buffer
// the caller owns (a connection's write buffer, behind the frame's length
// prefix), and Binary.Encode is AppendEncode into a new, exactly sized one.
// Binary.Decode never returns a message that shares memory with the bytes
// it read — strings and slices are copied out — so a connection may read
// its next frame over the last one as soon as Decode returns.
// Binary.DecodeLent is the same decoder with a message's bulk copied into
// memory lent from this package's pools (see Recycle) instead of new
// arrays: a server's serve loop decodes requests with it, and a client its
// answers, and each gives the memory back once it has been read.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/regress"
	"repro/internal/tuple"
)

// MsgType discriminates protocol messages.
type MsgType uint8

// Message type tags.
const (
	TypeQueryRequest MsgType = iota + 1
	TypeQueryResponse
	TypeModelRequest
	TypeModelResponse
	TypeError
	// Tags 6 and 7 are retired (they were BatchQueryRequest and
	// BatchQueryResponse with fixed-width IEEE fields; a batch now
	// travels column-coded under tags 30 and 31): a frame carrying either
	// decodes as unknown, and no message may take them again.

	// TypeBatchQueryRequest carries a route's points, column-coded
	// (batch.go).
	TypeBatchQueryRequest MsgType = 30
	// TypeBatchQueryResponse carries a route's answers, their values
	// coded like the points (batch.go).
	TypeBatchQueryResponse MsgType = 31
)

// Message is any protocol message.
type Message interface {
	// Type returns the message's wire tag.
	Type() MsgType
}

// QueryRequest is the query tuple q_l = (t_l, x_l, y_l) sent by the mobile
// object for one position update, tagged with the pollutant being asked
// about.
type QueryRequest struct {
	T         float64         `json:"t"`
	X         float64         `json:"x"`
	Y         float64         `json:"y"`
	Pollutant tuple.Pollutant `json:"pollutant"`
}

// Type implements Message.
func (QueryRequest) Type() MsgType { return TypeQueryRequest }

// QueryResponse carries the interpolated value ŝ_l back to the client.
type QueryResponse struct {
	Value float64 `json:"value"`
}

// Type implements Message.
func (QueryResponse) Type() MsgType { return TypeQueryResponse }

// BatchQueryRequest ships a whole route of query tuples (possibly mixing
// pollutants) in one frame — one radio round trip instead of one per
// point. Every item carries its pollutant tag.
type BatchQueryRequest struct {
	Items []QueryRequest `json:"items"`
}

// Type implements Message.
func (BatchQueryRequest) Type() MsgType { return TypeBatchQueryRequest }

// BatchQueryItem is one request's outcome within a batch response: the
// interpolated value, or — when Err is set — the error that request
// (alone) failed with; build a failed item with FailedItem. A failure's
// code, which types it exactly like ErrorResponse.Code, rides the wire in
// the failure's status byte (1 untyped error, >= 2 the code; batch.go),
// so typed and untyped items are the same width. In memory it occupies Value, which
// a failed item does not otherwise use: a route reply holds a hundred
// items, and a fourth word on each measurably raises what every read
// allocates (+4.8 % alloc_kb_per_op on the benchmark's route_tcp).
type BatchQueryItem struct {
	Value float64 `json:"value"`
	Err   string  `json:"error,omitempty"`
}

// FailedItem is the item of a request that failed with msg (which must
// not be empty), typed by code.
func FailedItem(code ErrCode, msg string) BatchQueryItem {
	return BatchQueryItem{Value: float64(code), Err: msg}
}

// Code returns a failed item's code: CodeNone for an untyped failure and
// for an item that carries a value.
func (it BatchQueryItem) Code() ErrCode {
	if it.Err == "" {
		return CodeNone
	}
	return ErrCode(it.Value)
}

// BatchQueryResponse carries one item per batch request, in order. The
// batch is not atomic: a request outside the retained windows reports its
// error in its own slot without rejecting the rest.
type BatchQueryResponse struct {
	Items []BatchQueryItem `json:"items"`
}

// Type implements Message.
func (BatchQueryResponse) Type() MsgType { return TypeBatchQueryResponse }

// MaxBatchItems bounds the items of one batch message (the binary codec
// carries the count as uint16).
const MaxBatchItems = math.MaxUint16

// ModelRequest is e_l: the model-cache client asking for the current model
// cover of one pollutant. T lets the server pick the window containing the
// client's clock.
type ModelRequest struct {
	T         float64         `json:"t"`
	Pollutant tuple.Pollutant `json:"pollutant"`
}

// Type implements Message.
func (ModelRequest) Type() MsgType { return TypeModelRequest }

// ModelResponse ships (t_n, µ, M): validity, centroids, and model
// coefficients for every region of the cover (§2.3 items i–iii).
type ModelResponse struct {
	ValidFrom  float64     `json:"validFrom"`
	ValidUntil float64     `json:"validUntil"` // t_n
	ValueLo    float64     `json:"valueLo"`    // clamp range low bound
	ValueHi    float64     `json:"valueHi"`    // clamp range high bound
	Pollutant  uint8       `json:"pollutant"`
	Features   string      `json:"features"`
	Centroids  []geo.Point `json:"centroids"`
	Coefs      [][]float64 `json:"coefs"`
}

// Type implements Message.
func (ModelResponse) Type() MsgType { return TypeModelResponse }

// ErrCode types a failure on the wire, so the receiver restores the
// sender's sentinel error without reading the message text. The codes and
// the sentinels they stand for are paired in one table, in
// internal/cluster; this package only carries the byte.
type ErrCode uint8

// Error codes. 0 is an untyped failure. 1 is reserved: it is the
// "untyped error" status of a BatchQueryItem and never a code. Where
// several failures are summarized into one response the lowest code
// wins, so the list is in priority order.
const (
	CodeNone             ErrCode = 0
	CodePartialIngest    ErrCode = 2  // cluster.ErrPartialIngest
	CodeStaleEpoch       ErrCode = 3  // cluster.ErrStaleEpoch
	CodeTooLarge         ErrCode = 4  // cluster.ErrTooLarge
	CodeOutOfWindow      ErrCode = 5  // query.ErrOutOfWindow
	CodeNoCover          ErrCode = 6  // query.ErrNoCover
	CodeUnknownPollutant ErrCode = 7  // query.ErrUnknownPollutant
	CodeSaturated        ErrCode = 8  // ingest.ErrSaturated
	CodeInvalidBatch     ErrCode = 9  // ingest.ErrInvalidBatch
	CodePipelineClosed   ErrCode = 10 // ingest.ErrPipelineClosed
	CodeNodeUnreachable  ErrCode = 11 // cluster.ErrNodeUnreachable
	CodeReplicaMiss      ErrCode = 12 // cluster.ErrReplicaMiss
)

// ErrorResponse reports a server-side failure. Msg is for humans; Code
// is what programs act on. The code travels as one trailing byte, also
// when it is CodeNone.
type ErrorResponse struct {
	Msg  string  `json:"error"`
	Code ErrCode `json:"code,omitempty"`
}

// Type implements Message.
func (ErrorResponse) Type() MsgType { return TypeError }

// Protocol errors.
var (
	ErrMalformed = errors.New("wire: malformed message")
	ErrUnknown   = errors.New("wire: unknown message type")
)

// Binary is the wire codec: a 1-byte type tag followed by little-endian
// fields, fixed-width but for the bulk of a route batch and a raster,
// which are residual-coded (residual.go), and a frame's tuples, which are
// packed (tuples.go).
var Binary binaryCodec

type binaryCodec struct{}

// Encode returns m's encoding in a buffer of exactly its size.
func (c binaryCodec) Encode(m Message) ([]byte, error) { return c.AppendEncode(nil, m) }

// AppendEncode appends m's encoding to dst and returns the extended slice
// — the one encoder; a connection that answers request after request hands
// it the same buffer each time. dst grows at most once per call, by exactly
// what is missing when it is nil (by a tuple frame's worst case otherwise,
// since its packed size is known only once packed); on error it is
// returned as it came.
func (binaryCodec) AppendEncode(dst []byte, m Message) ([]byte, error) {
	return appendMsg(dst, 0, m)
}

// appendMsg appends head bytes for the caller to fill and, behind them, m's
// encoding. A message that wraps another (Forwarded, ReplicaRead,
// RingUpdate) asks for its own header as the inner message's head and
// writes it once the inner message is in place, so nothing is encoded
// aside and copied in.
func appendMsg(dst []byte, head int, m Message) ([]byte, error) {
	switch v := m.(type) {
	case QueryRequest:
		out, buf := grow(dst, head, 1+24+1)
		buf[0] = byte(TypeQueryRequest)
		putF64(buf[1:], v.T)
		putF64(buf[9:], v.X)
		putF64(buf[17:], v.Y)
		buf[25] = byte(v.Pollutant)
		return out, nil
	case QueryResponse:
		out, buf := grow(dst, head, 1+8)
		buf[0] = byte(TypeQueryResponse)
		putF64(buf[1:], v.Value)
		return out, nil
	case ModelRequest:
		out, buf := grow(dst, head, 1+8+1)
		buf[0] = byte(TypeModelRequest)
		putF64(buf[1:], v.T)
		buf[9] = byte(v.Pollutant)
		return out, nil
	case BatchQueryRequest:
		return appendBatchRequest(dst, head, v)
	case BatchQueryResponse:
		return appendBatchResponse(dst, head, v)
	case ModelResponse:
		return appendModelResponse(dst, head, v)
	case ErrorResponse:
		if len(v.Msg) > math.MaxUint16 {
			return dst, fmt.Errorf("wire: error message too long (%d bytes)", len(v.Msg))
		}
		out, buf := grow(dst, head, 1+2+len(v.Msg)+1)
		buf[0] = byte(TypeError)
		binary.LittleEndian.PutUint16(buf[1:], uint16(len(v.Msg)))
		copy(buf[3:], v.Msg)
		buf[3+len(v.Msg)] = byte(v.Code)
		return out, nil
	default:
		return appendCluster(dst, head, m)
	}
}

func appendModelResponse(dst []byte, head int, v ModelResponse) ([]byte, error) {
	if len(v.Centroids) != len(v.Coefs) {
		return dst, fmt.Errorf("wire: %d centroids vs %d coefficient sets",
			len(v.Centroids), len(v.Coefs))
	}
	if len(v.Centroids) > math.MaxUint16 {
		return dst, fmt.Errorf("wire: cover too large (%d regions)", len(v.Centroids))
	}
	if len(v.Features) > math.MaxUint8 {
		return dst, errors.New("wire: feature name too long")
	}
	size := 1 + 8 + 8 + 8 + 8 + 1 + 1 + len(v.Features) + 2
	for _, c := range v.Coefs {
		if len(c) > math.MaxUint8 {
			return dst, errors.New("wire: too many coefficients")
		}
		size += 16 + 1 + 8*len(c)
	}
	out, buf := grow(dst, head, size)
	buf[0] = byte(TypeModelResponse)
	putF64(buf[1:], v.ValidFrom)
	putF64(buf[9:], v.ValidUntil)
	putF64(buf[17:], v.ValueLo)
	putF64(buf[25:], v.ValueHi)
	buf[33] = v.Pollutant
	buf[34] = byte(len(v.Features))
	off := 35 + copy(buf[35:], v.Features)
	binary.LittleEndian.PutUint16(buf[off:], uint16(len(v.Centroids)))
	off += 2
	for i, c := range v.Centroids {
		putF64(buf[off:], c.X)
		putF64(buf[off+8:], c.Y)
		off += 16
		buf[off] = byte(len(v.Coefs[i]))
		off++
		for _, co := range v.Coefs[i] {
			putF64(buf[off:], co)
			off += 8
		}
	}
	return out, nil
}

// grow extends dst by head+size bytes and returns the extended slice and
// its last size bytes, zeroed, for the caller to fill. A nil dst gets
// exactly the bytes asked for.
func grow(dst []byte, head, size int) (out, body []byte) {
	n := len(dst) + head
	if dst == nil {
		out = make([]byte, n+size)
	} else {
		out = slices.Grow(dst, head+size)[:n+size]
		clear(out[n:])
	}
	return out, out[n:]
}

// Decode parses one message into memory of its own.
func (binaryCodec) Decode(data []byte) (Message, error) { return decode(data, false) }

// DecodeLent is Decode with the bulk of a message lent from the pools:
// the two request bodies — a BatchQueryRequest's points, and an
// IngestRequest's or a ReplicaIngest's tuples, also inside a Forwarded or
// ReplicaRead — and the two answers, a BatchQueryResponse's items and a
// HeatmapResponse's values. Every other field, and every other message, is
// decoded as Decode does. Whoever decodes with it owns that memory until
// it hands the message to Recycle; one that keeps the message simply never
// does.
func (binaryCodec) DecodeLent(data []byte) (Message, error) { return decode(data, true) }

// alloc returns n elements of T to decode into, and the box their slice
// last travelled in (see inBox): lent from p when lend is set, new and
// without a box otherwise.
func alloc[T any](p *lendPool[T], n int, lend bool) ([]T, Message) {
	if lend {
		return p.lend(n)
	}
	return make([]T, n), nil
}

// decode is the one decoder; lend selects where a message's bulk goes.
func decode(data []byte, lend bool) (Message, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("%w: empty", ErrMalformed)
	}
	switch MsgType(data[0]) {
	case TypeQueryRequest:
		if len(data) != 26 {
			return nil, fmt.Errorf("%w: QueryRequest length %d", ErrMalformed, len(data))
		}
		return QueryRequest{T: getF64(data[1:]), X: getF64(data[9:]), Y: getF64(data[17:]),
			Pollutant: tuple.Pollutant(data[25])}, nil
	case TypeQueryResponse:
		if len(data) != 9 {
			return nil, fmt.Errorf("%w: QueryResponse length %d", ErrMalformed, len(data))
		}
		return QueryResponse{Value: getF64(data[1:])}, nil
	case TypeModelRequest:
		if len(data) != 10 {
			return nil, fmt.Errorf("%w: ModelRequest length %d", ErrMalformed, len(data))
		}
		return ModelRequest{T: getF64(data[1:]), Pollutant: tuple.Pollutant(data[9])}, nil
	case TypeBatchQueryRequest:
		return decodeBatchRequest(data, lend)
	case TypeBatchQueryResponse:
		return decodeBatchResponse(data, lend)
	case TypeModelResponse:
		return decodeModelResponse(data)
	case TypeError:
		if len(data) < 3 {
			return nil, fmt.Errorf("%w: ErrorResponse header", ErrMalformed)
		}
		n := int(binary.LittleEndian.Uint16(data[1:]))
		if len(data) != 3+n+1 {
			return nil, fmt.Errorf("%w: ErrorResponse length", ErrMalformed)
		}
		if data[3+n] == 1 {
			return nil, fmt.Errorf("%w: ErrorResponse code 1", ErrMalformed)
		}
		return ErrorResponse{Msg: string(data[3 : 3+n]), Code: ErrCode(data[3+n])}, nil
	default:
		return decodeCluster(data, lend)
	}
}

func decodeModelResponse(data []byte) (Message, error) {
	if len(data) < 35 {
		return nil, fmt.Errorf("%w: ModelResponse header", ErrMalformed)
	}
	v := ModelResponse{
		ValidFrom:  getF64(data[1:]),
		ValidUntil: getF64(data[9:]),
		ValueLo:    getF64(data[17:]),
		ValueHi:    getF64(data[25:]),
		Pollutant:  data[33],
	}
	nameLen := int(data[34])
	off := 35
	if len(data) < off+nameLen+2 {
		return nil, fmt.Errorf("%w: ModelResponse name", ErrMalformed)
	}
	v.Features = string(data[off : off+nameLen])
	off += nameLen
	count := int(binary.LittleEndian.Uint16(data[off:]))
	off += 2
	// Bound every region first, so that their coefficients can share one
	// array.
	regions, total := off, 0
	for i := 0; i < count; i++ {
		if len(data) < off+17 {
			return nil, fmt.Errorf("%w: ModelResponse region %d", ErrMalformed, i)
		}
		nc := int(data[off+16])
		off += 17
		if len(data) < off+8*nc {
			return nil, fmt.Errorf("%w: ModelResponse coefficients %d", ErrMalformed, i)
		}
		off += 8 * nc
		total += nc
	}
	if off != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(data)-off)
	}
	v.Centroids = make([]geo.Point, count)
	v.Coefs = make([][]float64, count)
	flat := make([]float64, total)
	off = regions
	for i := range v.Centroids {
		v.Centroids[i] = geo.Point{X: getF64(data[off:]), Y: getF64(data[off+8:])}
		nc := int(data[off+16])
		off += 17
		coefs := flat[:nc:nc]
		flat = flat[nc:]
		for j := range coefs {
			coefs[j] = getF64(data[off:])
			off += 8
		}
		v.Coefs[i] = coefs
	}
	return v, nil
}

func putF64(b []byte, v float64) { binary.LittleEndian.PutUint64(b, math.Float64bits(v)) }
func getF64(b []byte) float64    { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }

// ModelResponseFromCover serializes a built cover into the wire form the
// server sends in response to e_l. The response shares no memory with the
// cover: its centroids are a copy, and its coefficient sets are slices of
// one copy of the cover's coefficient column.
func ModelResponseFromCover(cv *core.Cover) (ModelResponse, error) {
	f, err := ModelFeatures(cv)
	if err != nil {
		return ModelResponse{}, err
	}
	k, d := cv.Size(), f.Dim()
	resp := ModelResponse{
		ValidFrom:  cv.ValidFrom,
		ValidUntil: cv.ValidUntil,
		ValueLo:    cv.ValueLo,
		ValueHi:    cv.ValueHi,
		Pollutant:  uint8(cv.Pollutant),
		Features:   f.Name(),
		Centroids:  slices.Clone(cv.Centroids),
		Coefs:      make([][]float64, k),
	}
	coefs := slices.Clone(cv.Coefs)
	for j := range resp.Coefs {
		resp.Coefs[j] = coefs[j*d : (j+1)*d : (j+1)*d]
	}
	return resp, nil
}

// ModelFeatures checks that cv can be sent as a model response — it has
// regions, a feature family a client resolves by name, and that family's
// Dim coefficients per region — and returns the family.
func ModelFeatures(cv *core.Cover) (regress.Features, error) {
	if cv == nil || cv.Size() == 0 {
		return nil, errors.New("wire: nil or empty cover")
	}
	if cv.Features == nil {
		return nil, errors.New("wire: cover has no feature family")
	}
	f, err := regress.FeaturesByName(cv.Features.Name())
	if err != nil {
		return nil, err
	}
	if k := cv.Size(); len(cv.Coefs) != k*f.Dim() {
		return nil, fmt.Errorf("wire: %d coefficients for %d regions of %s", len(cv.Coefs), k, f.Name())
	}
	return f, nil
}

// CoverFromModelResponse reconstructs a queryable cover on the client from
// a received model response — the (t_n, µ, M) triple the smartphone stores
// in local memory. The cover shares no memory with the response.
func CoverFromModelResponse(resp ModelResponse) (*core.Cover, error) {
	if len(resp.Centroids) != len(resp.Coefs) {
		return nil, fmt.Errorf("wire: %d centroids vs %d coefficient sets",
			len(resp.Centroids), len(resp.Coefs))
	}
	if len(resp.Centroids) == 0 {
		return nil, errors.New("wire: empty model response")
	}
	f, err := regress.FeaturesByName(resp.Features)
	if err != nil {
		return nil, err
	}
	d := f.Dim()
	for j, c := range resp.Coefs {
		if len(c) != d {
			return nil, fmt.Errorf("wire: region %d: %s wants %d coefficients, got %d",
				j, f.Name(), d, len(c))
		}
	}
	coefs := make([]float64, len(resp.Coefs)*d)
	for j, c := range resp.Coefs {
		copy(coefs[j*d:], c)
	}
	return &core.Cover{
		Pollutant:  tuple.Pollutant(resp.Pollutant),
		ValidFrom:  resp.ValidFrom,
		ValidUntil: resp.ValidUntil,
		Features:   f,
		Centroids:  slices.Clone(resp.Centroids),
		Coefs:      coefs,
		ValueLo:    resp.ValueLo,
		ValueHi:    resp.ValueHi,
	}, nil
}
