package wire

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/colblock"
	"repro/internal/tuple"
)

// The three frames that carry tuples — IngestRequest, ReplicaIngest and
// ReplicaCatchupResponse — put their fixed fields first and their tuples
// last, as one packed run: the column coding a checkpoint block and a
// replication log's chunks use (colblock.Pack).
//
//	count u32
//	4 columns (T, X, Y, S), each a 12-byte header and count offsets
//
// A column is frame-of-reference coded: a base and each value's offset
// from it in the fewest bits that hold them all, the values taken as
// fixed-point decimals when every one round-trips at one scale and as
// IEEE bits otherwise, so every float64 comes back bit for bit — NaN
// payloads, -0, ±Inf and subnormals included. A sensor fleet's 256-tuple
// upload takes ≈ 22 B a tuple; no run of n tuples takes more than
// colblock.MaxPackedLen(n) = 52 + 32n bytes.

// MaxFrameTuples bounds the tuples of one frame: the most whose packed
// run fits proto's 1 MiB frame with 64 bytes to spare for the fixed fields
// of any tuple frame, or a Forwarded wrapper, even when no column packs at
// all — colblock.MaxPackedLen(n) = 52 + 32n bytes. So every upload a
// decoder accepts can be forwarded and replicated in one frame. An encoder
// refuses more, and a decoder refuses a run that declares more before it
// lends or allocates anything: a run whose columns have width 0 costs no
// byte a tuple, so the frame's length does not bound its count.
const MaxFrameTuples = (1<<20 - 64 - 52) / 32

// errRunCount refuses a run over MaxFrameTuples without allocating.
var errRunCount = fmt.Errorf("%w: tuple run over %d tuples", ErrMalformed, MaxFrameTuples)

// appendRun appends head bytes for the caller to fill, a tuple frame's
// fixed bytes and then tuples as one packed run, and returns the extended
// slice and the fixed bytes, zeroed, for the caller to fill. A nil dst
// gets exactly the frame: the run is packed in colblock's pooled scratch
// and copied in behind the fields, one allocation. Any other dst grows at
// most once, by the frame's worst case, and the run is packed straight
// into it. On error dst is returned as it came.
func appendRun(dst []byte, head, fixed int, tuples []tuple.Raw) (out, fields []byte, err error) {
	if len(tuples) > MaxFrameTuples {
		return dst, nil, fmt.Errorf("wire: %d tuples in one frame, over %d", len(tuples), MaxFrameTuples)
	}
	if dst == nil {
		out = colblock.PackExact(head+fixed, tuples)
		return out, out[head : head+fixed], nil
	}
	out, fields = grow(slices.Grow(dst, head+fixed+colblock.MaxPackedLen(len(tuples))), head, fixed)
	return colblock.Pack(out, tuples), fields, nil
}

// decodeRun decodes run, a frame's packed run, into tuples lent from the
// pool when lend is set and new otherwise, and returns the box they last
// travelled in (see alloc). It refuses a count over MaxFrameTuples before
// it takes any memory, and gives lent memory back when the columns do not
// decode.
func decodeRun(run []byte, what string, lend bool) ([]tuple.Raw, Message, error) {
	if len(run) < 4 {
		return nil, nil, fmt.Errorf("%w: %s without its tuple count", ErrMalformed, what)
	}
	n := binary.LittleEndian.Uint32(run)
	if n > MaxFrameTuples {
		return nil, nil, errRunCount
	}
	dst, box := alloc(&raws, int(n), lend)
	if err := colblock.Unpack(dst, run); err != nil {
		if lend {
			raws.take(dst, box)
		}
		return nil, nil, fmt.Errorf("%w: %s: %v", ErrMalformed, what, err)
	}
	return dst, box, nil
}
