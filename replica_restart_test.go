package repro

// A primary that restarts begins a new replication incarnation: its
// surviving mirrors must reset onto the state it recovered and take its
// new commits, not acknowledge them as tuples they already hold.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/wire"
)

// TestRestartedPrimaryReachesItsMirror: on a 3-node R = 2 cluster over
// TCP, node 0 commits a first wave, which its mirror (node 1) receives;
// node 0 is then closed and reopened on the same address and data
// directory, and commits a second wave into the windows of the first and
// a new one. Node 1's mirror of node 0 must come to answer every sample
// node 0 owns exactly as node 0's engine does.
func TestRestartedPrimaryReachesItsMirror(t *testing.T) {
	addrs := reservePorts(t, 3)
	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	ctx := context.Background()
	open := func(id int) (*Platform, func()) {
		t.Helper()
		p, err := Open(Config{
			WindowSeconds: 3600,
			Pollutants:    []Pollutant{CO2},
			Dir:           dirs[id],
			Cluster: ClusterConfig{
				Nodes:    addrs,
				NodeID:   id,
				Cells:    6,
				Region:   Rect{Min: Point{X: -1500, Y: -1500}, Max: Point{X: 1500, Y: 1500}},
				Replicas: 2,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		srv, _, err := p.ListenTCP(addrs[id])
		if err != nil {
			t.Fatal(err)
		}
		return p, func() { srv.Close(); p.Close() }
	}
	plats := make([]*Platform, 3)
	stops := make([]func(), 3)
	for id := range plats {
		plats[id], stops[id] = open(id)
	}
	t.Cleanup(func() {
		for _, stop := range stops {
			stop()
		}
	})
	wave := func(t0, shift float64) []Reading {
		var rs []Reading
		for x := -1400.0; x <= 1400; x += 100 {
			for y := -1400.0; y <= 1400; y += 100 {
				rs = append(rs, Reading{T: t0 + (x+1400)/10, X: x, Y: y, S: clusterField(x, y) + shift*x/1400})
			}
		}
		return rs
	}
	if err := plats[0].Ingest(ctx, CO2, wave(600, 0)); err != nil {
		t.Fatal(err)
	}

	var samples []Request
	for _, t0 := range []float64{600, 4200} {
		for x := -1350.0; x <= 1350; x += 300 {
			for y := -1350.0; y <= 1350; y += 300 {
				if plats[0].Owns(CO2, x, y) {
					samples = append(samples, Request{T: t0 + 60, X: x, Y: y, Pollutant: CO2})
				}
			}
		}
	}
	if len(samples) == 0 {
		t.Fatal("node 0 owns no sample")
	}
	mirror, err := proto.Dial(addrs[1], proto.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer mirror.Close()
	// mismatch names the first sample node 1's mirror of node 0 answers
	// otherwise than node 0 does ("" when none).
	mismatch := func(p0 *Platform, reqs []Request) string {
		p0.WaitMaintenance()
		for _, req := range reqs {
			want, err := p0.Query(ctx, req)
			if err != nil {
				return fmt.Sprintf("node 0 at %+v: %v", req, err)
			}
			resp, err := mirror.Exchange(wire.ReplicaRead{Origin: 0, Inner: wire.QueryRequest{T: req.T, X: req.X, Y: req.Y, Pollutant: CO2}})
			if err != nil {
				return fmt.Sprintf("mirror at %+v: %v", req, err)
			}
			if qr, ok := resp.(wire.QueryResponse); !ok || qr.Value != want {
				return fmt.Sprintf("mirror at %+v answers %#v, node 0 %v", req, resp, want)
			}
		}
		return ""
	}
	waitMirror := func(p0 *Platform, reqs []Request) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			diff := mismatch(p0, reqs)
			if diff == "" {
				return
			}
			if time.Now().After(deadline) {
				t.Fatal(diff)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	waitMirror(plats[0], samples[:len(samples)/2])

	t.Log("restarting node 0")
	stops[0]()
	p0, stop := open(0)
	stops[0] = stop
	if p0.Len() == 0 {
		t.Fatal("node 0 recovered nothing")
	}
	second := append(wave(600, 40), wave(4200, -30)...)
	if err := p0.Ingest(ctx, CO2, second); err != nil {
		t.Fatal(err)
	}
	waitMirror(p0, samples)
}
