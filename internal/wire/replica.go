// Replication messages: the frames that let shard owners stream
// committed ingest slices to their replicas, carry the checkpoint-or-
// suffix chunks a puller receives (ReplicaCatchupResponse, the answer to
// a ShardTransfer: a replica that detects a sequence gap pulls itself
// back into sync that way), and let any party read a dead owner's shards
// from a replica's mirror (ReplicaRead).
package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/tuple"
)

// Replication message type tags.
const (
	// TypeReplicaIngest streams one committed ingest slice from a shard
	// primary to a replica, carrying the slice's replication sequence.
	TypeReplicaIngest MsgType = iota + 21
	// Tag 22 is retired (it was ReplicaCatchupRequest; a replica now
	// catches up with a ShardTransfer): a frame carrying it decodes as
	// unknown, and no message may take it again.

	// TypeReplicaCatchupResponse carries one chunk of a replication
	// stream, the answer to a ShardTransfer: a suffix of the log, or
	// (Snapshot) the start of a full retained-state reset when the puller
	// is behind the log.
	TypeReplicaCatchupResponse MsgType = 23
	// TypeReplicaRead asks a node to answer the inner request from its
	// mirror of another node — the failover read path when that node
	// (the shard's primary) is unreachable.
	TypeReplicaRead MsgType = 24
)

// ReplicaIngest is a primary streaming one committed ingest slice to a
// replica. Seq is the replication sequence of the first tuple: the
// replica applies the frame only if it continues its stream (Seq equal
// to — or overlapping — the sequence it holds) and otherwise pulls a
// catch-up instead of applying out of order.
type ReplicaIngest struct {
	// Origin is the primary's node ID; the replica applies the slice to
	// its mirror of that node.
	Origin    uint16          `json:"origin"`
	Pollutant tuple.Pollutant `json:"pollutant"`
	Seq       uint64          `json:"seq"`
	Tuples    []tuple.Raw     `json:"tuples"`
	// Incarnation names the primary's sequence space: every start of a
	// node begins a new one, so a replica holding an earlier incarnation's
	// stream resets instead of taking the new stream's first tuples for
	// ones it holds. 0 is a sender that names none.
	Incarnation uint64 `json:"incarnation,omitempty"`
}

// Type implements Message.
func (ReplicaIngest) Type() MsgType { return TypeReplicaIngest }

// ReplicaCatchupResponse is one chunk of a replication stream, the
// answer to a ShardTransfer. With Snapshot unset the tuples are the log
// suffix starting at From == the requested Have (the segment-suffix
// case); with Snapshot set the puller was behind the log, must drop its
// state for the stream, and receives the log's retained state from its
// start (the checkpoint case). Done reports that applying this chunk
// brings the puller up to the log's current sequence; until then it
// keeps requesting with its advanced Have.
type ReplicaCatchupResponse struct {
	Snapshot bool        `json:"snapshot,omitempty"`
	Done     bool        `json:"done,omitempty"`
	From     uint64      `json:"from"`
	Tuples   []tuple.Raw `json:"tuples"`
	// Incarnation is the sequence space From counts in (ReplicaIngest's).
	Incarnation uint64 `json:"incarnation,omitempty"`
}

// Type implements Message.
func (ReplicaCatchupResponse) Type() MsgType { return TypeReplicaCatchupResponse }

// ReplicaRead asks the receiving node to answer Inner from its mirror
// of node Origin — the read-failover frame sent when Origin (the
// shard's primary) is unreachable. Like Forwarded it is terminal: the
// receiver answers from local (mirror) state and never re-routes, and
// routing wrappers do not nest.
type ReplicaRead struct {
	Origin uint16  `json:"origin"`
	Inner  Message `json:"-"`
}

// Type implements Message.
func (ReplicaRead) Type() MsgType { return TypeReplicaRead }

// putRaws serializes tuples at buf (32 bytes each).
func putRaws(buf []byte, tuples []tuple.Raw) {
	off := 0
	for _, r := range tuples {
		putF64(buf[off:], r.T)
		putF64(buf[off+8:], r.X)
		putF64(buf[off+16:], r.Y)
		putF64(buf[off+24:], r.S)
		off += 32
	}
}

// getRaws parses len(dst) tuples at buf into dst and returns it.
func getRaws(dst []tuple.Raw, buf []byte) []tuple.Raw {
	off := 0
	for i := range dst {
		dst[i] = tuple.Raw{
			T: getF64(buf[off:]), X: getF64(buf[off+8:]),
			Y: getF64(buf[off+16:]), S: getF64(buf[off+24:]),
		}
		off += 32
	}
	return dst
}

// appendReplica serializes the replication messages (binary codec).
func appendReplica(dst []byte, head int, m Message) ([]byte, error) {
	switch v := m.(type) {
	case ReplicaIngest:
		if len(v.Tuples) > math.MaxUint32 {
			return dst, fmt.Errorf("wire: replica ingest too large (%d tuples)", len(v.Tuples))
		}
		out, buf := grow(dst, head, 1+2+1+8+4+32*len(v.Tuples)+8)
		buf[0] = byte(TypeReplicaIngest)
		binary.LittleEndian.PutUint16(buf[1:], v.Origin)
		buf[3] = byte(v.Pollutant)
		binary.LittleEndian.PutUint64(buf[4:], v.Seq)
		binary.LittleEndian.PutUint32(buf[12:], uint32(len(v.Tuples)))
		putRaws(buf[16:], v.Tuples)
		binary.LittleEndian.PutUint64(buf[16+32*len(v.Tuples):], v.Incarnation)
		return out, nil
	case ReplicaCatchupResponse:
		if len(v.Tuples) > math.MaxUint32 {
			return dst, fmt.Errorf("wire: catch-up chunk too large (%d tuples)", len(v.Tuples))
		}
		out, buf := grow(dst, head, 1+1+8+4+32*len(v.Tuples)+8)
		buf[0] = byte(TypeReplicaCatchupResponse)
		if v.Snapshot {
			buf[1] |= 1
		}
		if v.Done {
			buf[1] |= 2
		}
		binary.LittleEndian.PutUint64(buf[2:], v.From)
		binary.LittleEndian.PutUint32(buf[10:], uint32(len(v.Tuples)))
		putRaws(buf[14:], v.Tuples)
		binary.LittleEndian.PutUint64(buf[14+32*len(v.Tuples):], v.Incarnation)
		return out, nil
	case ReplicaRead:
		if v.Inner == nil {
			return dst, fmt.Errorf("%w: replica read without inner message", ErrMalformed)
		}
		switch v.Inner.(type) {
		case ReplicaRead, Forwarded:
			return dst, fmt.Errorf("%w: routing wrapper nested in replica read", ErrMalformed)
		}
		out, err := appendMsg(dst, head+3, v.Inner)
		if err != nil {
			return dst, err
		}
		hdr := out[len(dst)+head:]
		hdr[0] = byte(TypeReplicaRead)
		binary.LittleEndian.PutUint16(hdr[1:], v.Origin)
		return out, nil
	default:
		return appendMembership(dst, head, m)
	}
}

// decodeReplica parses the replication messages (binary codec).
func decodeReplica(data []byte, lend bool) (Message, error) {
	switch MsgType(data[0]) {
	case TypeReplicaIngest:
		if len(data) < 16 {
			return nil, fmt.Errorf("%w: ReplicaIngest header", ErrMalformed)
		}
		count := int(binary.LittleEndian.Uint32(data[12:]))
		if len(data) != 16+32*count+8 {
			return nil, fmt.Errorf("%w: ReplicaIngest length %d for %d tuples", ErrMalformed, len(data), count)
		}
		return ReplicaIngest{
			Origin:      binary.LittleEndian.Uint16(data[1:]),
			Pollutant:   tuple.Pollutant(data[3]),
			Seq:         binary.LittleEndian.Uint64(data[4:]),
			Tuples:      getRaws(alloc(&raws, count, lend), data[16:]),
			Incarnation: binary.LittleEndian.Uint64(data[16+32*count:]),
		}, nil
	case TypeReplicaCatchupResponse:
		if len(data) < 14 {
			return nil, fmt.Errorf("%w: ReplicaCatchupResponse header", ErrMalformed)
		}
		if data[1] > 3 {
			return nil, fmt.Errorf("%w: ReplicaCatchupResponse flags %d", ErrMalformed, data[1])
		}
		count := int(binary.LittleEndian.Uint32(data[10:]))
		if len(data) != 14+32*count+8 {
			return nil, fmt.Errorf("%w: ReplicaCatchupResponse length %d for %d tuples", ErrMalformed, len(data), count)
		}
		return ReplicaCatchupResponse{
			Snapshot:    data[1]&1 != 0,
			Done:        data[1]&2 != 0,
			From:        binary.LittleEndian.Uint64(data[2:]),
			Tuples:      getRaws(make([]tuple.Raw, count), data[14:]),
			Incarnation: binary.LittleEndian.Uint64(data[14+32*count:]),
		}, nil
	case TypeReplicaRead:
		if len(data) < 4 {
			return nil, fmt.Errorf("%w: replica read without inner message", ErrMalformed)
		}
		switch MsgType(data[3]) {
		case TypeReplicaRead, TypeForwarded:
			return nil, fmt.Errorf("%w: routing wrapper nested in replica read", ErrMalformed)
		}
		inner, err := decode(data[3:], lend)
		if err != nil {
			return nil, err
		}
		return ReplicaRead{Origin: binary.LittleEndian.Uint16(data[1:]), Inner: inner}, nil
	default:
		return decodeMembership(data)
	}
}
