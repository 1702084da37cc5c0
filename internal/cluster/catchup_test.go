package cluster_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// heldOrigin stands in for node 0 when node 1's mirror catches up: it
// hands the test every ShardTransfer the mirror sends and answers with
// what the test sends back, through the wire codec, so the test decides
// when a round's answer lands.
type heldOrigin struct {
	asked  chan wire.ShardTransfer
	answer chan wire.Message
	gone   chan struct{} // closed when the test ends: every round fails
}

// heldMirrorNode is newMirrorNode whose catch-up pulls go to the returned
// held origin.
func heldMirrorNode(t *testing.T) (*cluster.Node, *heldOrigin) {
	o := &heldOrigin{asked: make(chan wire.ShardTransfer), answer: make(chan wire.Message), gone: make(chan struct{})}
	node := newMirrorNodeVia(t, 0, newMirrorEngine, o)
	t.Cleanup(func() { close(o.gone) }) // before the node closes, which waits for its sessions
	return node, o
}

func (o *heldOrigin) Exchange(req wire.Message) (wire.Message, error) {
	st, ok := req.(wire.ShardTransfer)
	if !ok {
		return nil, fmt.Errorf("held origin: %T", req)
	}
	var resp wire.Message
	select {
	case o.asked <- st:
	case <-o.gone:
		return nil, errors.New("held origin: gone")
	}
	select {
	case resp = <-o.answer:
	case <-o.gone:
		return nil, errors.New("held origin: gone")
	}
	b, err := wire.Binary.Encode(resp)
	if err != nil {
		return nil, err
	}
	return wire.Binary.Decode(b)
}

// nextAsk returns the next round the mirror asks, failing after a few
// seconds.
func (o *heldOrigin) nextAsk(t *testing.T) wire.ShardTransfer {
	t.Helper()
	select {
	case st := <-o.asked:
		return st
	case <-time.After(5 * time.Second):
		t.Fatal("the mirror asked its origin nothing")
		return wire.ShardTransfer{}
	}
}

// catchupStream is the origin's stream of n tuples; a tuple's index is its
// sequence.
func catchupStream(n int) []tuple.Raw {
	out := make([]tuple.Raw, n)
	for i := range out {
		out[i] = tuple.Raw{T: float64(10 * i), X: float64(20*i - 500), Y: float64(500 - 15*i), S: 400 + float64(i)}
	}
	return out
}

// feed streams stream[seq:end) to node's mirror of the origin and
// reports whether the frame was applied.
func feed(node *cluster.Node, stream []tuple.Raw, seq, end int) bool {
	tuples := append([]tuple.Raw(nil), stream[seq:end]...)
	_, acked := node.HandleMessage(wire.ReplicaIngest{Origin: mirrorOrigin, Pollutant: tuple.CO2, Seq: uint64(seq), Tuples: tuples}).(wire.IngestResponse)
	return acked
}

// waitMirror waits until node's mirror holds want tuples, failing after a
// few seconds.
func waitMirror(t *testing.T, node *cluster.Node, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		wait := cluster.NextMove(node)
		got := cluster.MirrorTuples(node)
		if got == want {
			return
		}
		if !wait(deadline) {
			t.Fatalf("mirror holds %d tuples, want %d", got, want)
		}
	}
}

// answerRound takes the next round the mirror asks, requires it to ask
// from have, and answers it with stream[have:end) as the origin's log.
func answerRound(t *testing.T, o *heldOrigin, stream []tuple.Raw, have, end int) {
	t.Helper()
	if st := o.nextAsk(t); st.Have != uint64(have) {
		t.Fatalf("the mirror asked from %d, want %d", st.Have, have)
	}
	o.answer <- wire.ReplicaCatchupResponse{From: uint64(have), Tuples: stream[have:end], Done: true}
}

// TestStaleSnapshotLeavesMirror: a catch-up round's answer applies only
// while the mirror holds the position the round asked from. The mirror
// asks from 30, frames land up to 38 meanwhile, and the round's answer
// is a snapshot the origin cut before them: applied, it would move the
// mirror back to 30. The session must ask again from 38 instead.
func TestStaleSnapshotLeavesMirror(t *testing.T) {
	node, o := heldMirrorNode(t)
	stream := catchupStream(40)
	if !feed(node, stream, 0, 30) {
		t.Fatal("the first frame was refused")
	}
	if feed(node, stream, 35, 40) {
		t.Fatal("a gapped frame was applied")
	}
	if st := o.nextAsk(t); st.Have != 30 {
		t.Fatalf("the mirror asked from %d, want 30", st.Have)
	}
	if !feed(node, stream, 30, 38) {
		t.Fatal("a frame that continues the mirror was refused")
	}
	o.answer <- wire.ReplicaCatchupResponse{Snapshot: true, From: 0, Tuples: stream[:30], Done: true}
	answerRound(t, o, stream, 38, 40)
	waitMirror(t, node, 40)
	if rs, _ := node.ReplicationStats(); rs.Snapshots != 0 {
		t.Errorf("%d snapshot resets taken, want none", rs.Snapshots)
	}
}

// TestGapDuringCatchupPullsAgain: a gap refused while a catch-up session
// runs has the session pull again before it ends. The session's one
// round is answered with what the origin's log held when it asked, which
// ends before the frames the second gap lost; without a second pull the
// mirror would wait for the next gap to heal.
func TestGapDuringCatchupPullsAgain(t *testing.T) {
	node, o := heldMirrorNode(t)
	stream := catchupStream(25)
	if !feed(node, stream, 0, 10) {
		t.Fatal("the first frame was refused")
	}
	if feed(node, stream, 15, 20) {
		t.Fatal("a gapped frame was applied")
	}
	st := o.nextAsk(t)
	if feed(node, stream, 20, 25) {
		t.Fatal("a gapped frame was applied")
	}
	if st.Have != 10 {
		t.Fatalf("the mirror asked from %d, want 10", st.Have)
	}
	o.answer <- wire.ReplicaCatchupResponse{From: 10, Tuples: stream[10:15], Done: true}
	answerRound(t, o, stream, 15, 25)
	waitMirror(t, node, 25)
}
