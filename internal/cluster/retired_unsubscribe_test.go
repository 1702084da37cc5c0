package cluster_test

// A push subscription ends one way, when its stream closes. Tag 19 was
// an UnsubscribeRequest naming a subscription ID: on a cluster node it
// reached the local engine's registry, whose IDs are not the routed
// feed's, so a client's unsubscribe closed some node-local leg — its
// own, reported as a dead owner, or another client's. The frame is
// retired: a node and an engine answer it as an unknown message, and
// every subscription keeps pushing.

import (
	"context"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/kmeans"
	"repro/internal/proto"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// sendUnsubscribeFrame sends the retired tag-19 frame naming id to addr
// on a connection of its own, as any client could, and returns the
// reply's payload once the server has answered it.
func sendUnsubscribeFrame(t *testing.T, addr string, id uint64) []byte {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	frame := binary.LittleEndian.AppendUint64([]byte{19}, id)
	if err := proto.WriteFrame(conn, frame); err != nil {
		t.Fatal(err)
	}
	reply, err := proto.ReadFrame(conn)
	if err != nil {
		t.Fatalf("no reply to the tag-19 frame: %v", err)
	}
	return reply
}

// wantUnknownReply checks that reply is the answer to an unknown message.
func wantUnknownReply(t *testing.T, reply []byte) {
	t.Helper()
	m, err := wire.Binary.Decode(reply)
	if _, isErr := m.(wire.ErrorResponse); err != nil || !isErr {
		t.Errorf("tag-19 frame answered %#v (%v), want an ErrorResponse for an unknown message", m, err)
	}
}

// awaitPush reads st until a push carries point index with a value other
// than old, failing on an error event or a closed stream.
func awaitPush(t *testing.T, st *proto.Stream, index uint16, old float64) {
	t.Helper()
	deadline := time.After(15 * time.Second)
	for {
		select {
		case m, open := <-st.C():
			if !open {
				t.Fatalf("subscription stream ended: %v", st.Err())
			}
			p, isPush := m.(wire.Push)
			if !isPush {
				t.Fatalf("stream carried %#v, want pushes only", m)
			}
			if p.Err != "" {
				t.Fatalf("subscription got an error event: %s", p.Err)
			}
			for _, pt := range p.Points {
				if pt.Index == index && pt.Err == "" && pt.Value != old {
					return
				}
			}
		case <-deadline:
			t.Fatalf("no push for point %d after the ingest", index)
		}
	}
}

// primeStream collects pushes until every one of n points has a value.
func primeStream(t *testing.T, st *proto.Stream, n int) map[uint16]float64 {
	t.Helper()
	values := make(map[uint16]float64)
	deadline := time.After(15 * time.Second)
	for len(values) < n {
		select {
		case m, open := <-st.C():
			if !open {
				t.Fatalf("subscription stream ended while priming: %v", st.Err())
			}
			p, isPush := m.(wire.Push)
			if !isPush || p.Err != "" {
				t.Fatalf("priming got %#v", m)
			}
			for _, pt := range p.Points {
				if pt.Err != "" {
					t.Fatalf("point %d failed: %s", pt.Index, pt.Err)
				}
				values[pt.Index] = pt.Value
			}
		case <-deadline:
			t.Fatalf("primed %d of %d points", len(values), n)
		}
	}
	return values
}

// bumped is data's tuples that pick accepts, each reading bump higher.
func bumped(data tuple.Batch, bump float64, pick func(geo.Point) bool) tuple.Batch {
	var b tuple.Batch
	for _, r := range data {
		if pick(r.Pos()) {
			b = append(b, tuple.Raw{T: r.T, X: r.X, Y: r.Y, S: r.S + bump})
		}
	}
	return b
}

func TestRetiredUnsubscribeFrameLeavesSubscriptionPushing(t *testing.T) {
	ctx := context.Background()

	t.Run("routed", func(t *testing.T) {
		p := newTCPPair(t)
		addr := p.servers[0].Addr().String()
		// One point on each node's shards: the routed feed has a local leg
		// on node 0 and a remote one on node 1.
		st, err := proto.DialStream(addr, proto.ServerConfig{}, wire.SubscribeRequest{
			Pollutant: tuple.CO2,
			Points:    []wire.SubPoint{{T: queryT, X: p.local.X, Y: p.local.Y}, {T: queryT, X: p.foreign.X, Y: p.foreign.Y}},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		ack, isAck := st.Ack().(wire.SubscribeAck)
		if !isAck {
			t.Fatalf("subscribe answered %#v", st.Ack())
		}
		values := primeStream(t, st, 2)

		reply := sendUnsubscribeFrame(t, addr, ack.ID)

		ring := p.nodes[0].Ring()
		b := bumped(makeData(), 120, func(pos geo.Point) bool { return ring.Owner(tuple.CO2, pos) == 0 })
		if err := p.nodes[0].Ingest(ctx, tuple.CO2, b); err != nil {
			t.Fatal(err)
		}
		awaitPush(t, st, 0, values[0])
		wantUnknownReply(t, reply)
	})

	t.Run("single node", func(t *testing.T) {
		e, err := server.NewMultiEngineOpts(map[tuple.Pollutant]*store.Store{tuple.CO2: store.MustOpenMemory(windowLen)},
			core.Config{Cluster: kmeans.Config{Seed: 7}}, server.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		data := makeData()
		if err := e.Ingest(ctx, tuple.CO2, data); err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := proto.Serve(ln, e, proto.ServerConfig{})
		defer srv.Close()
		addr := ln.Addr().String()

		pos := data[len(data)/2].Pos()
		st, err := proto.DialStream(addr, proto.ServerConfig{}, wire.SubscribeRequest{
			Pollutant: tuple.CO2, Points: []wire.SubPoint{{T: queryT, X: pos.X, Y: pos.Y}},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		ack, isAck := st.Ack().(wire.SubscribeAck)
		if !isAck {
			t.Fatalf("subscribe answered %#v", st.Ack())
		}
		values := primeStream(t, st, 1)

		// Another connection names the subscription's ID.
		reply := sendUnsubscribeFrame(t, addr, ack.ID)

		if err := e.Ingest(ctx, tuple.CO2, bumped(data, 120, func(geo.Point) bool { return true })); err != nil {
			t.Fatal(err)
		}
		awaitPush(t, st, 0, values[0])
		wantUnknownReply(t, reply)
	})
}
