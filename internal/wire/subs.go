// Subscription messages: the frames of server-push continuous
// queries. A client subscribes a route (point set + pollutant) once and
// the server pushes delta frames — only the points whose covers were
// invalidated and re-evaluated — with sequence numbers, instead of the
// client re-polling the full route.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/tuple"
)

// Subscription message type tags.
const (
	// TypeSubscribeRequest registers a point set for push delivery.
	TypeSubscribeRequest MsgType = iota + 16
	// TypeSubscribeAck acknowledges a subscription with its server ID.
	TypeSubscribeAck
	// TypePush carries one push event: a delta, resync, or error frame.
	TypePush
	// Tags 19 and 20 are retired (they were UnsubscribeRequest and
	// UnsubscribeResponse; a subscription ends when its stream closes):
	// a frame carrying either decodes as unknown, and no message may take
	// them again.
)

// SubPoint is one subscribed route point (t_l, x_l, y_l).
type SubPoint struct {
	T float64 `json:"t"`
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// SubscribeRequest opens a subscription over a point set for one
// pollutant. The transport must support server push (a proto stream or
// the HTTP SSE endpoint); over a plain request/response exchange the
// server answers with an ErrorResponse.
type SubscribeRequest struct {
	Pollutant tuple.Pollutant `json:"pollutant"`
	Points    []SubPoint      `json:"points"`
}

// Type implements Message.
func (SubscribeRequest) Type() MsgType { return TypeSubscribeRequest }

// SubscribeAck confirms a subscription. The initial value vector is not
// in the ack: it arrives as the first Push (a resync, sequence 1), so
// acks and pushes share one consumer path.
type SubscribeAck struct {
	ID     uint64 `json:"id"`
	Points uint16 `json:"points"`
}

// Type implements Message.
func (SubscribeAck) Type() MsgType { return TypeSubscribeAck }

// PushPoint is one point of a push frame: the index into the subscribed
// point set plus the new value or per-point evaluation error.
type PushPoint struct {
	Index uint16  `json:"i"`
	Value float64 `json:"value"`
	Err   string  `json:"error,omitempty"`
}

// Push is one server-push event. A delta frame carries only changed
// points; a resync frame (Resync set) carries every point and tells the
// consumer to discard cached values — the server sends one after a
// slow-consumer overflow dropped an event. Err reports a
// subscription-level condition such as an unreachable shard owner.
type Push struct {
	ID     uint64      `json:"id"`
	Seq    uint64      `json:"seq"`
	Resync bool        `json:"resync,omitempty"`
	Err    string      `json:"error,omitempty"`
	Points []PushPoint `json:"points"`
}

// Type implements Message.
func (Push) Type() MsgType { return TypePush }

// pushResync is the flag bit marking a resync push frame.
const pushResync = 1 << 0

// appendSubs serializes the subscription messages (binary codec).
func appendSubs(dst []byte, head int, m Message) ([]byte, error) {
	switch v := m.(type) {
	case SubscribeRequest:
		if len(v.Points) > MaxBatchItems {
			return dst, fmt.Errorf("wire: subscription too large (%d points)", len(v.Points))
		}
		out, buf := grow(dst, head, 1+1+2+24*len(v.Points))
		buf[0] = byte(TypeSubscribeRequest)
		buf[1] = byte(v.Pollutant)
		binary.LittleEndian.PutUint16(buf[2:], uint16(len(v.Points)))
		off := 4
		for _, p := range v.Points {
			putF64(buf[off:], p.T)
			putF64(buf[off+8:], p.X)
			putF64(buf[off+16:], p.Y)
			off += 24
		}
		return out, nil
	case SubscribeAck:
		out, buf := grow(dst, head, 1+8+2)
		buf[0] = byte(TypeSubscribeAck)
		binary.LittleEndian.PutUint64(buf[1:], v.ID)
		binary.LittleEndian.PutUint16(buf[9:], v.Points)
		return out, nil
	case Push:
		return appendPush(dst, head, v)
	default:
		return appendReplica(dst, head, m)
	}
}

func appendPush(dst []byte, head int, v Push) ([]byte, error) {
	if len(v.Points) > MaxBatchItems {
		return dst, fmt.Errorf("wire: push too large (%d points)", len(v.Points))
	}
	if len(v.Err) > math.MaxUint16 {
		return dst, fmt.Errorf("wire: push error too long (%d bytes)", len(v.Err))
	}
	size := 1 + 8 + 8 + 1 + 2 + len(v.Err) + 2
	for _, p := range v.Points {
		if p.Err != "" {
			if len(p.Err) > math.MaxUint16 {
				return dst, fmt.Errorf("wire: push point error too long (%d bytes)", len(p.Err))
			}
			size += 2 + 1 + 2 + len(p.Err)
		} else {
			size += 2 + 1 + 8
		}
	}
	out, buf := grow(dst, head, size)
	buf[0] = byte(TypePush)
	binary.LittleEndian.PutUint64(buf[1:], v.ID)
	binary.LittleEndian.PutUint64(buf[9:], v.Seq)
	if v.Resync {
		buf[17] = pushResync
	}
	binary.LittleEndian.PutUint16(buf[18:], uint16(len(v.Err)))
	off := 20 + copy(buf[20:], v.Err)
	binary.LittleEndian.PutUint16(buf[off:], uint16(len(v.Points)))
	off += 2
	for _, p := range v.Points {
		binary.LittleEndian.PutUint16(buf[off:], p.Index)
		off += 2
		if p.Err != "" {
			buf[off] = 1
			binary.LittleEndian.PutUint16(buf[off+1:], uint16(len(p.Err)))
			off += 3 + copy(buf[off+3:], p.Err)
		} else {
			buf[off] = 0
			putF64(buf[off+1:], p.Value)
			off += 9
		}
	}
	return out, nil
}

// decodeSubs parses the subscription messages (binary codec).
func decodeSubs(data []byte, lend bool) (Message, error) {
	switch MsgType(data[0]) {
	case TypeSubscribeRequest:
		if len(data) < 4 {
			return nil, fmt.Errorf("%w: SubscribeRequest header", ErrMalformed)
		}
		count := int(binary.LittleEndian.Uint16(data[2:]))
		if len(data) != 4+24*count {
			return nil, fmt.Errorf("%w: SubscribeRequest length %d for %d points", ErrMalformed, len(data), count)
		}
		m := SubscribeRequest{Pollutant: tuple.Pollutant(data[1])}
		if count > 0 {
			m.Points = make([]SubPoint, count)
		}
		off := 4
		for i := range m.Points {
			m.Points[i] = SubPoint{T: getF64(data[off:]), X: getF64(data[off+8:]), Y: getF64(data[off+16:])}
			off += 24
		}
		return m, nil
	case TypeSubscribeAck:
		if len(data) != 11 {
			return nil, fmt.Errorf("%w: SubscribeAck length %d", ErrMalformed, len(data))
		}
		return SubscribeAck{
			ID:     binary.LittleEndian.Uint64(data[1:]),
			Points: binary.LittleEndian.Uint16(data[9:]),
		}, nil
	case TypePush:
		return decodePush(data)
	default:
		return decodeReplica(data, lend)
	}
}

func decodePush(data []byte) (Message, error) {
	if len(data) < 22 {
		return nil, fmt.Errorf("%w: Push header", ErrMalformed)
	}
	v := Push{
		ID:  binary.LittleEndian.Uint64(data[1:]),
		Seq: binary.LittleEndian.Uint64(data[9:]),
	}
	switch data[17] {
	case 0:
	case pushResync:
		v.Resync = true
	default:
		return nil, fmt.Errorf("%w: Push flags %d", ErrMalformed, data[17])
	}
	errLen := int(binary.LittleEndian.Uint16(data[18:]))
	off := 20
	if len(data) < off+errLen+2 {
		return nil, fmt.Errorf("%w: Push error body", ErrMalformed)
	}
	v.Err = string(data[off : off+errLen])
	off += errLen
	count := int(binary.LittleEndian.Uint16(data[off:]))
	off += 2
	// Cheapest possible point is 5 bytes (index + error flag + length);
	// check before allocating so a tiny frame cannot claim a huge count.
	if len(data) < off+5*count {
		return nil, fmt.Errorf("%w: Push length %d for %d points", ErrMalformed, len(data), count)
	}
	if count > 0 {
		v.Points = make([]PushPoint, count)
	}
	for i := range v.Points {
		if len(data) < off+3 {
			return nil, fmt.Errorf("%w: Push point %d", ErrMalformed, i)
		}
		v.Points[i].Index = binary.LittleEndian.Uint16(data[off:])
		off += 2
		switch data[off] {
		case 0:
			if len(data) < off+9 {
				return nil, fmt.Errorf("%w: Push point %d value", ErrMalformed, i)
			}
			v.Points[i].Value = getF64(data[off+1:])
			off += 9
		case 1:
			if len(data) < off+3 {
				return nil, fmt.Errorf("%w: Push point %d error header", ErrMalformed, i)
			}
			n := int(binary.LittleEndian.Uint16(data[off+1:]))
			if len(data) < off+3+n {
				return nil, fmt.Errorf("%w: Push point %d error body", ErrMalformed, i)
			}
			v.Points[i].Err = string(data[off+3 : off+3+n])
			off += 3 + n
		default:
			return nil, fmt.Errorf("%w: Push point %d flag %d", ErrMalformed, i, data[off])
		}
	}
	if off != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(data)-off)
	}
	return v, nil
}
