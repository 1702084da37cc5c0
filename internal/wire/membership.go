// Membership messages: the frames that let the cluster change shape
// while serving traffic. A joining node announces itself and
// receives the next-epoch ring (JoinRequest); a membership coordinator
// pushes ring versions to peers in two steps — prepare, then commit
// (RingUpdate); a node bootstrapping or finishing a handoff, or a
// replica catching up after a sequence gap, pulls a stream's replication
// log from a node holding it (ShardTransfer, answered with the existing
// ReplicaCatchupResponse chunks); and a node
// that detected a dead primary asks a surviving replica to promote its
// mirror at a new epoch (Promote).
package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/tuple"
)

// Membership message type tags.
const (
	// TypeJoinRequest is a new node announcing itself to a seed node,
	// asking for the next-epoch ring that includes it.
	TypeJoinRequest MsgType = iota + 25
	// TypeRingUpdate pushes a ring version to a peer: prepare (the peer
	// holds it pending, begins bootstrapping any shards it gains) or
	// commit (the peer installs it and fences the old epoch).
	TypeRingUpdate
	// TypeShardTransfer asks a node for the replication log of one
	// pollutant stream from a given sequence — the pull a replica runs
	// to catch up, and a gaining node during join, drain, and promotion.
	// Answered with ReplicaCatchupResponse chunks.
	TypeShardTransfer
	// TypePromote asks a surviving replica to promote its mirror of a
	// dead primary at a new epoch.
	TypePromote
)

// JoinRequest is a new node announcing its serving address to any
// current member. The receiver computes the next-epoch ring with the
// joiner appended and answers with its RingResponse — without
// installing it; the joiner bootstraps its shards against that pending
// ring and commits the epoch via RingUpdate once it has the data.
type JoinRequest struct {
	Addr string `json:"addr"`
}

// Type implements Message.
func (JoinRequest) Type() MsgType { return TypeJoinRequest }

// RingUpdate pushes a ring version to a peer. With Commit unset the
// receiver treats the ring as pending: placement does not change, but
// the receiver may begin bootstrapping shards it gains under it. With
// Commit set the receiver installs the ring — its epoch must exceed the
// receiver's current epoch — and thereafter fences routed frames
// carrying older epochs. The receiver answers with the RingResponse of
// whatever ring it currently serves, so the sender can detect a peer
// that is ahead.
type RingUpdate struct {
	Ring   RingResponse `json:"ring"`
	Commit bool         `json:"commit,omitempty"`
}

// Type implements Message.
func (RingUpdate) Type() MsgType { return TypeRingUpdate }

// ShardTransfer asks the receiving node for the replication log of one
// pollutant stream, starting at sequence Have. Origin selects whose
// stream: the receiver's own primary log (Origin == receiver) or its
// mirror log of another node (the promotion/bootstrap-from-replica
// case). A replica catching up asks the origin itself. Answered with
// ReplicaCatchupResponse chunks: a suffix when Have is inside the log, a
// Snapshot reset when it is behind it, Done when the chunk reaches the
// end.
type ShardTransfer struct {
	Origin    uint16          `json:"origin"`
	Pollutant tuple.Pollutant `json:"pollutant"`
	Have      uint64          `json:"have"`
	// Incarnation is the sequence space Have counts in (ReplicaIngest's):
	// a puller holding another one than the log's takes a snapshot reset.
	Incarnation uint64 `json:"incarnation,omitempty"`
}

// Type implements Message.
func (ShardTransfer) Type() MsgType { return TypeShardTransfer }

// Promote reports that node Node — a shard primary — is dead, asking
// the receiver to promote its mirrors of that node at a new epoch.
// Epoch is the epoch at which the sender observed the death; a receiver
// whose ring has already moved past it answers with its current ring
// and changes nothing (the promotion already happened).
type Promote struct {
	Node  uint16 `json:"node"`
	Epoch uint64 `json:"epoch"`
}

// Type implements Message.
func (Promote) Type() MsgType { return TypePromote }

// appendMembership serializes the membership messages (binary codec).
func appendMembership(dst []byte, head int, m Message) ([]byte, error) {
	switch v := m.(type) {
	case JoinRequest:
		if len(v.Addr) > math.MaxUint16 {
			return dst, fmt.Errorf("wire: join address too long (%d bytes)", len(v.Addr))
		}
		out, buf := grow(dst, head, 1+2+len(v.Addr))
		buf[0] = byte(TypeJoinRequest)
		binary.LittleEndian.PutUint16(buf[1:], uint16(len(v.Addr)))
		copy(buf[3:], v.Addr)
		return out, nil
	case RingUpdate:
		out, err := appendMsg(dst, head+2, v.Ring)
		if err != nil {
			return dst, err
		}
		hdr := out[len(dst)+head:]
		hdr[0] = byte(TypeRingUpdate)
		hdr[1] = 0
		if v.Commit {
			hdr[1] = 1
		}
		return out, nil
	case ShardTransfer:
		out, buf := grow(dst, head, 1+2+1+8+8)
		buf[0] = byte(TypeShardTransfer)
		binary.LittleEndian.PutUint16(buf[1:], v.Origin)
		buf[3] = byte(v.Pollutant)
		binary.LittleEndian.PutUint64(buf[4:], v.Have)
		binary.LittleEndian.PutUint64(buf[12:], v.Incarnation)
		return out, nil
	case Promote:
		out, buf := grow(dst, head, 1+2+8)
		buf[0] = byte(TypePromote)
		binary.LittleEndian.PutUint16(buf[1:], v.Node)
		binary.LittleEndian.PutUint64(buf[3:], v.Epoch)
		return out, nil
	default:
		return dst, fmt.Errorf("%w: %T", ErrUnknown, m)
	}
}

// decodeMembership parses the membership messages (binary codec).
func decodeMembership(data []byte) (Message, error) {
	switch MsgType(data[0]) {
	case TypeJoinRequest:
		if len(data) < 3 {
			return nil, fmt.Errorf("%w: JoinRequest header", ErrMalformed)
		}
		n := int(binary.LittleEndian.Uint16(data[1:]))
		if len(data) != 3+n {
			return nil, fmt.Errorf("%w: JoinRequest length", ErrMalformed)
		}
		return JoinRequest{Addr: string(data[3:])}, nil
	case TypeRingUpdate:
		if len(data) < 3 {
			return nil, fmt.Errorf("%w: RingUpdate header", ErrMalformed)
		}
		if data[1] > 1 {
			return nil, fmt.Errorf("%w: RingUpdate commit flag %d", ErrMalformed, data[1])
		}
		inner, err := Binary.Decode(data[2:])
		if err != nil {
			return nil, err
		}
		ring, ok := inner.(RingResponse)
		if !ok {
			return nil, fmt.Errorf("%w: RingUpdate carries %T", ErrMalformed, inner)
		}
		return RingUpdate{Ring: ring, Commit: data[1] == 1}, nil
	case TypeShardTransfer:
		if len(data) != 20 {
			return nil, fmt.Errorf("%w: ShardTransfer length %d", ErrMalformed, len(data))
		}
		return ShardTransfer{
			Origin:      binary.LittleEndian.Uint16(data[1:]),
			Pollutant:   tuple.Pollutant(data[3]),
			Have:        binary.LittleEndian.Uint64(data[4:]),
			Incarnation: binary.LittleEndian.Uint64(data[12:]),
		}, nil
	case TypePromote:
		if len(data) != 11 {
			return nil, fmt.Errorf("%w: Promote length %d", ErrMalformed, len(data))
		}
		return Promote{
			Node:  binary.LittleEndian.Uint16(data[1:]),
			Epoch: binary.LittleEndian.Uint64(data[3:]),
		}, nil
	default:
		return nil, fmt.Errorf("%w: tag %d", ErrUnknown, data[0])
	}
}
