package wire

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/tuple"
)

// TestLentMessagesTravelInTheirOwnBox: a lent message comes back in a box
// only for the slice it holds. Seeded random sequences decode lent batch
// requests, batch answers, uploads and replica frames — uploads and
// replica frames share the tuple pool — of a few sizes and pollutants,
// bare or inside a Forwarded or ReplicaRead, and recycle random ones of
// those held. Every message decoded must equal Decode's of the same frame
// (its bulk and every other field) and share its array with no message
// still held, and every message held must still read as it was decoded.
// The sequences must also bring a recycled slice back both for the same
// value (the box's) and for another length, pollutant or message type.
func TestLentMessagesTravelInTheirOwnBox(t *testing.T) {
	var sameValue, otherValue int
	for seed := range int64(4) {
		rng := rand.New(rand.NewSource(seed))
		type held struct {
			m, want Message
		}
		var live []held
		// gone maps the array of each recycled message to its value when
		// it was recycled.
		gone := make(map[unsafe.Pointer]Message)
		for range 600 {
			if len(live) > 0 && (len(live) >= 8 || rng.Intn(2) == 0) {
				k := rng.Intn(len(live))
				h := live[k]
				live = append(live[:k], live[k+1:]...)
				Recycle(h.m, IngestResponse{})
				gone[bulkOf(h.m)] = h.want
				continue
			}
			frame := lendFrame(t, rng)
			m, err := Binary.DecodeLent(frame)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Binary.Decode(frame)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(m, want) {
				t.Fatalf("seed %d: DecodeLent of a %T frame = %s, Decode = %s", seed, want, describe(m), describe(want))
			}
			arr := bulkOf(m)
			for _, h := range live {
				if bulkOf(h.m) == arr {
					t.Fatalf("seed %d: a lent %s shares its array with a held %s", seed, describe(m), describe(h.m))
				}
			}
			if old, ok := gone[arr]; ok {
				delete(gone, arr)
				if sameBox(old, m) {
					sameValue++
				} else {
					otherValue++
				}
			}
			live = append(live, held{m, want})
			for _, h := range live {
				if !reflect.DeepEqual(h.m, h.want) {
					t.Fatalf("seed %d: a held %s changed to %s", seed, describe(h.want), describe(h.m))
				}
			}
		}
		for _, h := range live {
			Recycle(h.m, IngestResponse{})
		}
	}
	t.Logf("a recycled slice came back for the same value %d times, for another %d times", sameValue, otherValue)
	if !raceEnabled && (sameValue == 0 || otherValue == 0) {
		t.Errorf("a recycled slice came back for the same value %d times, for another %d times; want both > 0", sameValue, otherValue)
	}
}

// lendFrame encodes a random message whose bulk DecodeLent lends: sizes
// and pollutants come from short lists, so that a recycled slice is often
// lent again, for the same value or for another.
func lendFrame(tb testing.TB, rng *rand.Rand) []byte {
	sizes := []int{1, 3, 100, 100, 128, 200, 256}
	n := sizes[rng.Intn(len(sizes))]
	pol := []tuple.Pollutant{tuple.CO2, tuple.CO, tuple.PM}[rng.Intn(3)]
	tuples := func() []tuple.Raw {
		ts := make([]tuple.Raw, n)
		for i := range ts {
			ts[i] = tuple.Raw{T: float64(rng.Intn(1 << 20)), X: rng.Float64() * 4000, Y: rng.Float64() * 3000, S: rng.Float64() * 900}
		}
		return ts
	}
	var m Message
	switch rng.Intn(4) {
	case 0:
		r := BatchQueryRequest{Items: make([]QueryRequest, n)}
		for i := range r.Items {
			r.Items[i] = QueryRequest{T: rng.Float64() * 1e5, X: rng.Float64() * 4000, Y: rng.Float64() * 3000, Pollutant: pol}
		}
		m = r
	case 1:
		r := BatchQueryResponse{Items: make([]BatchQueryItem, n)}
		for i := range r.Items {
			if rng.Intn(10) == 0 {
				r.Items[i] = FailedItem(CodeOutOfWindow, fmt.Sprintf("item %d failed", i))
			} else {
				r.Items[i] = BatchQueryItem{Value: rng.Float64() * 900}
			}
		}
		m = r
	case 2:
		m = IngestRequest{Pollutant: pol, Tuples: tuples()}
	default:
		m = ReplicaIngest{Origin: uint16(rng.Intn(3)), Pollutant: pol, Seq: rng.Uint64(), Incarnation: rng.Uint64(), Tuples: tuples()}
	}
	switch _, upload := m.(IngestRequest); {
	case (upload || m.Type() == TypeBatchQueryRequest) && rng.Intn(3) == 0:
		m = Forwarded{Inner: m, Epoch: rng.Uint64()}
	case m.Type() == TypeBatchQueryRequest && rng.Intn(3) == 0:
		m = ReplicaRead{Origin: uint16(rng.Intn(3)), Inner: m}
	}
	frame, err := Binary.Encode(m)
	if err != nil {
		tb.Fatal(err)
	}
	return frame
}

// unwrap returns the message a Forwarded or ReplicaRead carries, and any
// other message itself.
func unwrap(m Message) Message {
	switch v := m.(type) {
	case Forwarded:
		return v.Inner
	case ReplicaRead:
		return v.Inner
	}
	return m
}

// bulkOf returns the array of a lent message's bulk.
func bulkOf(m Message) unsafe.Pointer {
	switch v := unwrap(m).(type) {
	case BatchQueryRequest:
		return unsafe.Pointer(unsafe.SliceData(v.Items))
	case BatchQueryResponse:
		return unsafe.Pointer(unsafe.SliceData(v.Items))
	case IngestRequest:
		return unsafe.Pointer(unsafe.SliceData(v.Tuples))
	case ReplicaIngest:
		return unsafe.Pointer(unsafe.SliceData(v.Tuples))
	}
	panic(fmt.Sprintf("no lent bulk in %T", m))
}

// sameBox reports whether m, decoded into the slice old was recycled
// with, may come in old's box: the same type of message with the same
// length and, for an upload, the same pollutant.
func sameBox(old, m Message) bool {
	old, m = unwrap(old), unwrap(m)
	switch v := m.(type) {
	case BatchQueryRequest:
		o, ok := old.(BatchQueryRequest)
		return ok && len(o.Items) == len(v.Items)
	case BatchQueryResponse:
		o, ok := old.(BatchQueryResponse)
		return ok && len(o.Items) == len(v.Items)
	case IngestRequest:
		o, ok := old.(IngestRequest)
		return ok && len(o.Tuples) == len(v.Tuples) && o.Pollutant == v.Pollutant
	}
	return false
}

// describe names a message by its type, wrapper and size.
func describe(m Message) string {
	var n int
	var pol tuple.Pollutant
	switch v := unwrap(m).(type) {
	case BatchQueryRequest:
		n = len(v.Items)
	case BatchQueryResponse:
		n = len(v.Items)
	case IngestRequest:
		n, pol = len(v.Tuples), v.Pollutant
	case ReplicaIngest:
		n, pol = len(v.Tuples), v.Pollutant
	}
	switch m.(type) {
	case Forwarded, ReplicaRead:
		return fmt.Sprintf("%T of a %T (%d, pollutant %d)", m, unwrap(m), n, pol)
	}
	return fmt.Sprintf("%T (%d, pollutant %d)", m, n, pol)
}

// sink keeps what inBox returns on the heap.
var sink Message

// TestLentBoxNeedsTheSameValue: inBox hands back the box a slice
// travelled in only for the very value it holds, without allocating; the
// same array at another length or capacity, another pollutant, or in
// another type of message gets a new box holding the new value, and the
// old box still reads as it did.
func TestLentBoxNeedsTheSameValue(t *testing.T) {
	s := make([]tuple.Raw, 200, 256)
	want := IngestRequest{Pollutant: tuple.CO2, Tuples: s}
	var box Message = want
	if allocs := testing.AllocsPerRun(100, func() { sink = inBox(box, IngestRequest{Pollutant: tuple.CO2, Tuples: s}) }); allocs != 0 {
		t.Errorf("the same upload in its box = %v allocs, want 0", allocs)
	}
	for _, m := range []IngestRequest{
		{Pollutant: tuple.CO2, Tuples: s[:199]},
		{Pollutant: tuple.CO2, Tuples: s[:256]},
		{Pollutant: tuple.CO2, Tuples: s[:200:200]},
		{Pollutant: tuple.CO2, Tuples: s[1:201]},
		{Pollutant: tuple.PM, Tuples: s},
		{Pollutant: tuple.CO2, Tuples: make([]tuple.Raw, 200, 256)},
	} {
		if allocs := testing.AllocsPerRun(10, func() { sink = inBox(box, m) }); allocs != 1 {
			t.Errorf("%s in the box of %s = %v allocs, want 1 (a new box)", describe(m), describe(box), allocs)
		}
		got, ok := sink.(IngestRequest)
		if !ok || got.Pollutant != m.Pollutant || !sameSlice(got.Tuples, m.Tuples) {
			t.Errorf("%s in the box of %s came back as %s", describe(m), describe(box), describe(sink))
		}
	}
	if got := box.(IngestRequest); got.Pollutant != want.Pollutant || !sameSlice(got.Tuples, want.Tuples) {
		t.Errorf("the box changed to %s", describe(box))
	}
	// Another message type over the same array: a replica frame's box does
	// not hold an upload, nor a route's an answer.
	if got, ok := inBox(ReplicaIngest{Pollutant: tuple.CO2, Tuples: s}, want).(IngestRequest); !ok || !sameSlice(got.Tuples, s) {
		t.Errorf("an upload in a replica frame's box came back as %T", got)
	}
	q := make([]QueryRequest, 100, 128)
	if _, ok := inBox(BatchQueryRequest{Items: q}, BatchQueryResponse{Items: make([]BatchQueryItem, 100, 128)}).(BatchQueryResponse); !ok {
		t.Error("an answer in a route's box did not come back as an answer")
	}
	if got, ok := inBox(nil, BatchQueryRequest{Items: q}).(BatchQueryRequest); !ok || !sameSlice(got.Items, q) {
		t.Error("a route without a box did not come back boxed")
	}
}
