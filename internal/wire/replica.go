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

	"repro/internal/tuple"
)

// Replication message type tags.
const (
	// Tags 21 and 23 are retired (they were ReplicaIngest and
	// ReplicaCatchupResponse with every tuple as four raw IEEE words; they
	// now travel packed under tags 34 and 35), and so is tag 22 (it was
	// ReplicaCatchupRequest; a replica now catches up with a
	// ShardTransfer): a frame carrying any of them decodes as unknown, and
	// no message may take them again.

	// TypeReplicaRead asks a node to answer the inner request from its
	// mirror of another node — the failover read path when that node
	// (the shard's primary) is unreachable.
	TypeReplicaRead MsgType = 24
	// TypeReplicaIngest streams one committed ingest slice from a shard
	// primary to a replica, carrying the slice's replication sequence;
	// its tuples are packed (tuples.go).
	TypeReplicaIngest MsgType = 34
	// TypeReplicaCatchupResponse carries one chunk of a replication
	// stream, the answer to a ShardTransfer: a suffix of the log, or
	// (Snapshot) the start of a full retained-state reset when the puller
	// is behind the log. Its tuples are packed (tuples.go).
	TypeReplicaCatchupResponse MsgType = 35
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

// appendReplica serializes the replication messages (binary codec).
func appendReplica(dst []byte, head int, m Message) ([]byte, error) {
	switch v := m.(type) {
	case ReplicaIngest:
		out, buf, err := appendRun(dst, head, 1+2+1+8+8, v.Tuples)
		if err != nil {
			return dst, err
		}
		buf[0] = byte(TypeReplicaIngest)
		binary.LittleEndian.PutUint16(buf[1:], v.Origin)
		buf[3] = byte(v.Pollutant)
		binary.LittleEndian.PutUint64(buf[4:], v.Seq)
		binary.LittleEndian.PutUint64(buf[12:], v.Incarnation)
		return out, nil
	case ReplicaCatchupResponse:
		out, buf, err := appendRun(dst, head, 1+1+8+8, v.Tuples)
		if err != nil {
			return dst, err
		}
		buf[0] = byte(TypeReplicaCatchupResponse)
		if v.Snapshot {
			buf[1] |= 1
		}
		if v.Done {
			buf[1] |= 2
		}
		binary.LittleEndian.PutUint64(buf[2:], v.From)
		binary.LittleEndian.PutUint64(buf[10:], v.Incarnation)
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
		if len(data) < 20 {
			return nil, fmt.Errorf("%w: ReplicaIngest header", ErrMalformed)
		}
		tuples, _, err := decodeRun(data[20:], "ReplicaIngest", lend)
		if err != nil {
			return nil, err
		}
		return ReplicaIngest{
			Origin:      binary.LittleEndian.Uint16(data[1:]),
			Pollutant:   tuple.Pollutant(data[3]),
			Seq:         binary.LittleEndian.Uint64(data[4:]),
			Incarnation: binary.LittleEndian.Uint64(data[12:]),
			Tuples:      tuples,
		}, nil
	case TypeReplicaCatchupResponse:
		if len(data) < 18 {
			return nil, fmt.Errorf("%w: ReplicaCatchupResponse header", ErrMalformed)
		}
		if data[1] > 3 {
			return nil, fmt.Errorf("%w: ReplicaCatchupResponse flags %d", ErrMalformed, data[1])
		}
		// A catch-up chunk is kept by the puller, never lent.
		tuples, _, err := decodeRun(data[18:], "ReplicaCatchupResponse", false)
		if err != nil {
			return nil, err
		}
		return ReplicaCatchupResponse{
			Snapshot:    data[1]&1 != 0,
			Done:        data[1]&2 != 0,
			From:        binary.LittleEndian.Uint64(data[2:]),
			Incarnation: binary.LittleEndian.Uint64(data[10:]),
			Tuples:      tuples,
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
