package repro

// Facade-level cluster tests: a real two-node cluster over TCP (each
// Platform serving the binary wire protocol, peers dialed lazily), and
// the /v1/cluster HTTP endpoint.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/wire"
)

// reservePorts grabs n distinct localhost TCP addresses and releases
// them for the platforms to re-listen on.
func reservePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

func clusterField(x, y float64) float64 { return 410 + 0.02*x - 0.01*y }

func TestClusteredPlatformsOverTCP(t *testing.T) {
	addrs := reservePorts(t, 2)
	ctx := context.Background()

	open := func(id int) *Platform {
		p, err := Open(Config{
			WindowSeconds: 3600,
			Pollutants:    []Pollutant{CO2},
			Cluster: ClusterConfig{
				Nodes:  addrs,
				NodeID: id,
				Cells:  6,
				Region: Rect{Min: Point{X: -1500, Y: -1500}, Max: Point{X: 1500, Y: 1500}},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		srv, _, err := p.ListenTCP(addrs[id])
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		return p
	}
	p0, p1 := open(0), open(1)
	if !p0.Clustered() || !p1.Clustered() {
		t.Fatal("platforms not clustered")
	}

	// Lattice spread over both nodes' shards.
	var readings []Reading
	for x := -1400.0; x <= 1400; x += 200 {
		for y := -1400.0; y <= 1400; y += 200 {
			readings = append(readings, Reading{T: 600, X: x, Y: y, S: clusterField(x, y)})
		}
	}
	ownedBy0 := 0
	for _, r := range readings {
		if p0.Owns(CO2, r.X, r.Y) {
			ownedBy0++
		}
	}
	if ownedBy0 == 0 || ownedBy0 == len(readings) {
		t.Fatalf("degenerate sharding: node 0 owns %d of %d readings", ownedBy0, len(readings))
	}

	// Ingest everything through node 0: its own shards locally, node 1's
	// over TCP.
	if err := p0.Ingest(ctx, CO2, readings); err != nil {
		t.Fatal(err)
	}
	if got := p0.Len() + p1.Len(); got != len(readings) {
		t.Fatalf("cluster holds %d readings, ingested %d", got, len(readings))
	}
	if p1.Len() != len(readings)-ownedBy0 {
		t.Fatalf("node 1 holds %d readings, owns %d", p1.Len(), len(readings)-ownedBy0)
	}

	// Every query answers identically through both platforms, wherever
	// the shard lives.
	for i := 0; i < len(readings); i += 7 {
		req := Request{T: 600, X: readings[i].X, Y: readings[i].Y, Pollutant: CO2}
		v0, err0 := p0.Query(ctx, req)
		v1, err1 := p1.Query(ctx, req)
		if err0 != nil || err1 != nil {
			t.Fatalf("clustered query at (%v,%v): %v / %v", req.X, req.Y, err0, err1)
		}
		if v0 != v1 {
			t.Fatalf("platforms disagree at (%v,%v): %v vs %v", req.X, req.Y, v0, v1)
		}
	}

	// Batches split across the nodes.
	reqs := []Request{
		{T: 600, X: -1400, Y: -1400, Pollutant: CO2},
		{T: 600, X: 1400, Y: 1400, Pollutant: CO2},
		{T: 600, X: 0, Y: 1400, Pollutant: CO2},
	}
	rs, err := p1.QueryBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if r.Err != nil {
			t.Fatalf("batch item %d: %v", i, r.Err)
		}
	}

	// Heatmaps scatter-gather over TCP; both nodes assemble one map.
	g0, err := p0.Heatmap(ctx, CO2, 600, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	g1, err := p1.Heatmap(ctx, CO2, 600, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	if g0.Region != g1.Region {
		t.Fatalf("heatmap regions differ: %v vs %v", g0.Region, g1.Region)
	}

	// The model response merges both nodes' covers.
	mr, err := p0.ModelResponse(ctx, CO2, 600)
	if err != nil {
		t.Fatal(err)
	}
	if len(mr.Centroids) < 2 {
		t.Fatalf("merged model response has %d regions", len(mr.Centroids))
	}

	if st := p0.ClusterStats(); st.Forwarded == 0 && st.Scatters == 0 {
		t.Error("node 0 never used the cluster")
	}
}

// TestClusteredPlatformsReplicated: a real 3-node TCP cluster with
// Replicas: 2. Ingests commit at their shard's owner and stream to its
// ring successor's mirror engine; killing one node's server yields zero
// query errors through the survivors — every answer comes back
// byte-equal from a replica — and scatter-gather (heatmap) still
// assembles the full grid. With a second node down, scatter-gather
// degrades to a marked partial result instead of an all-or-nothing
// error.
func TestClusteredPlatformsReplicated(t *testing.T) {
	addrs := reservePorts(t, 3)
	ctx := context.Background()

	servers := make([]io.Closer, 3)
	plats := make([]*Platform, 3)
	httpSrvs := make([]*httptest.Server, 3)
	for id := 0; id < 3; id++ {
		p, err := Open(Config{
			WindowSeconds: 3600,
			Pollutants:    []Pollutant{CO2},
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
		t.Cleanup(func() { p.Close() })
		srv, _, err := p.ListenTCP(addrs[id])
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		plats[id], servers[id] = p, srv
		httpSrvs[id] = httptest.NewServer(p.Handler())
		t.Cleanup(httpSrvs[id].Close)
	}

	var readings []Reading
	for x := -1400.0; x <= 1400; x += 200 {
		for y := -1400.0; y <= 1400; y += 200 {
			readings = append(readings, Reading{T: 600, X: x, Y: y, S: clusterField(x, y)})
		}
	}
	if err := plats[0].Ingest(ctx, CO2, readings); err != nil {
		t.Fatal(err)
	}

	// Wait for the replication streams to drain: every streamed frame
	// applied to a mirror, observed through GET /v1/cluster.
	type clusterDoc struct {
		Replication *struct {
			Streamed int64 `json:"streamed"`
			Applied  int64 `json:"applied"`
			Mirrors  int   `json:"mirrors"`
		} `json:"replication"`
	}
	readDoc := func(i int) clusterDoc {
		resp, err := httpSrvs[i].Client().Get(httpSrvs[i].URL + "/v1/cluster")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var doc clusterDoc
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		return doc
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		streamed, applied, mirrors := int64(0), int64(0), 0
		for i := 0; i < 3; i++ {
			doc := readDoc(i)
			if doc.Replication == nil {
				t.Fatalf("node %d /v1/cluster has no replication section on a replicated ring", i)
			}
			streamed += doc.Replication.Streamed
			applied += doc.Replication.Applied
			mirrors += doc.Replication.Mirrors
		}
		if streamed > 0 && applied == streamed && mirrors > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replication never drained: streamed %d, applied %d, mirrors %d", streamed, applied, mirrors)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Record every sample's answer (and the full heatmap) before the
	// kill, then take node 2 off the network.
	var samples []Request
	for i := 0; i < len(readings); i += 7 {
		samples = append(samples, Request{T: 600, X: readings[i].X, Y: readings[i].Y, Pollutant: CO2})
	}
	want := make([]float64, len(samples))
	for i, req := range samples {
		v, err := plats[0].Query(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v
	}
	preGrid, err := plats[0].Heatmap(ctx, CO2, 600, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	servers[2].Close()

	victimOwned := 0
	for i, req := range samples {
		if !plats[0].Owns(CO2, req.X, req.Y) && !plats[1].Owns(CO2, req.X, req.Y) {
			victimOwned++
		}
		v, err := plats[0].Query(ctx, req)
		if err != nil {
			t.Fatalf("query at (%v,%v) failed after killing node 2: %v", req.X, req.Y, err)
		}
		if v != want[i] {
			t.Fatalf("failover answer %v at (%v,%v), was %v", v, req.X, req.Y, want[i])
		}
	}
	if victimOwned == 0 {
		t.Fatal("no sample owned by the killed node")
	}
	if plats[0].ClusterStats().FailedOver == 0 {
		t.Error("no request counted as failed over")
	}

	// Scatter-gather heals byte-equal from the mirrors.
	postGrid, err := plats[0].Heatmap(ctx, CO2, 600, 16, 16)
	if err != nil {
		t.Fatalf("heatmap after node loss: %v", err)
	}
	if !reflect.DeepEqual(preGrid, postGrid) {
		t.Fatal("post-kill heatmap differs from pre-kill")
	}

	// Two nodes down: scatter-gather answers what it can. Whether the
	// survivor's mirrors cover everything depends on the ring layout, so
	// the contract is: either a full grid, or a grid alongside
	// ErrPartialResult — never a bare error.
	servers[1].Close()
	g, err := plats[0].Heatmap(ctx, CO2, 600, 16, 16)
	if err != nil && !errors.Is(err, ErrPartialResult) {
		t.Fatalf("heatmap with two nodes down: %v, want nil or ErrPartialResult", err)
	}
	if g == nil || len(g.Values) == 0 {
		t.Fatal("heatmap with two nodes down carried no grid")
	}
	if err != nil {
		var pe *cluster.PartialError
		if !errors.As(err, &pe) {
			t.Fatalf("partial error %v does not unwrap to *cluster.PartialError", err)
		}
		if len(pe.Dead) == 0 {
			t.Fatal("partial error names no dead node")
		}
	}
}

func TestClusterHTTPEndpoint(t *testing.T) {
	addrs := reservePorts(t, 2)
	p, err := Open(Config{
		WindowSeconds: 3600,
		Pollutants:    []Pollutant{CO2},
		Cluster:       ClusterConfig{Nodes: addrs, NodeID: 0, Cells: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/v1/cluster: %s", resp.Status)
	}
	var doc struct {
		Self   int                         `json:"self"`
		Ring   wire.RingResponse           `json:"ring"`
		Shards map[string]map[string][]int `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Self != 0 {
		t.Errorf("self = %d, want 0", doc.Self)
	}
	if len(doc.Ring.Nodes) != 2 || len(doc.Ring.Cells) != 4 || doc.Ring.VNodes == 0 {
		t.Errorf("ring document incomplete: %+v", doc.Ring)
	}
	owned := 0
	for _, perNode := range doc.Shards {
		for _, cells := range perNode {
			owned += len(cells)
		}
	}
	if owned != 4 { // one pollutant x four cells
		t.Errorf("shard table covers %d cells, want 4", owned)
	}
}

// TestFacadeAndHTTPRouteIdentically: both surfaces call the one backend
// Open chose, the cluster node, so on a 2-node ring a request is
// answered, routed or refused the same way whichever surface carries it
// — the same value, or the same sentinel from the facade and that
// sentinel's status over HTTP. The removed ?processor= and ?radius=
// parameters are ignored like any unknown one: the cover answers. It
// also locks the clustered-ingest backpressure choice: a
// saturated owner sheds (ErrIngestSaturated / 429) for this node's own
// slice exactly as for a foreign one; the facade never blocks on it.
func TestFacadeAndHTTPRouteIdentically(t *testing.T) {
	addrs := reservePorts(t, 2)
	ctx := context.Background()
	open := func(id int) *Platform {
		p, err := Open(Config{
			WindowSeconds: 3600,
			Retain:        1,
			Pollutants:    []Pollutant{CO2},
			IngestQueue:   PipelineConfig{QueueDepth: 1},
			Cluster: ClusterConfig{
				Nodes: addrs, NodeID: id, Cells: 6,
				Region: Rect{Min: Point{X: -1500, Y: -1500}, Max: Point{X: 1500, Y: 1500}},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		srv, _, err := p.ListenTCP(addrs[id])
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		return p
	}
	p0, p1 := open(0), open(1)
	web := httptest.NewServer(p0.Handler())
	defer web.Close()

	var readings []Reading
	var own, foreign Reading // one reading on each node's shards
	for x := -1400.0; x <= 1400; x += 200 {
		for y := -1400.0; y <= 1400; y += 200 {
			r := Reading{T: 600, X: x, Y: y, S: clusterField(x, y)}
			readings = append(readings, r)
			if p0.Owns(CO2, x, y) {
				own = r
			} else {
				foreign = r
			}
		}
	}
	if err := p0.Ingest(ctx, CO2, readings); err != nil {
		t.Fatal(err)
	}

	queryURL := func(r Reading, at float64, extra string) string {
		return fmt.Sprintf("%s/v1/query?t=%.0f&x=%.0f&y=%.0f%s", web.URL, at, r.X, r.Y, extra)
	}
	for _, tc := range []struct {
		name   string
		at     Reading
		t      float64
		params string
		want   error // nil: both surfaces answer, with the same value
		status int
	}{
		{name: "owned", at: own, t: 600, status: 200},
		{name: "foreign", at: foreign, t: 600, status: 200},
		{name: "owned with radius", at: own, t: 600, params: "&radius=500", status: 200},
		{name: "foreign with radius", at: foreign, t: 600, params: "&processor=naive&radius=500", status: 200},
		{name: "foreign out of window", at: foreign, t: 1e9, want: ErrOutOfWindow, status: 404},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v, err := p0.Query(ctx, Request{T: tc.t, X: tc.at.X, Y: tc.at.Y, Pollutant: CO2})
			if !errors.Is(err, tc.want) {
				t.Fatalf("facade: %v, want %v", err, tc.want)
			}
			resp, herr := http.Get(queryURL(tc.at, tc.t, tc.params))
			if herr != nil {
				t.Fatal(herr)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("HTTP: status %d, want %d", resp.StatusCode, tc.status)
			}
			if tc.want != nil {
				return
			}
			var body struct{ Value float64 }
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Value != v {
				t.Fatalf("HTTP value %v (%v), facade value %v", body.Value, err, v)
			}
		})
	}

	// A batch across both shards answers the cover's values on both
	// surfaces, the removed parameters ignored.
	mixed := []Request{{T: 600, X: own.X, Y: own.Y}, {T: 600, X: foreign.X, Y: foreign.Y}}
	rs, err := p0.QueryBatch(ctx, mixed)
	if err != nil {
		t.Fatal(err)
	}
	batchBody := fmt.Sprintf(`{"requests":[{"t":600,"x":%v,"y":%v},{"t":600,"x":%v,"y":%v}]}`, own.X, own.Y, foreign.X, foreign.Y)
	resp, err := http.Post(web.URL+"/v1/query/batch?processor=naive&radius=500", "application/json", strings.NewReader(batchBody))
	if err != nil {
		t.Fatal(err)
	}
	var br struct {
		Values []struct {
			Value float64
			Error string
		}
	}
	err = json.NewDecoder(resp.Body).Decode(&br)
	resp.Body.Close()
	if err != nil || resp.StatusCode != 200 || len(br.Values) != len(rs) {
		t.Fatalf("HTTP batch across shards: status %d, %d values (%v), want 200 and %d", resp.StatusCode, len(br.Values), err, len(rs))
	}
	for i, it := range br.Values {
		if rs[i].Err != nil || it.Error != "" || it.Value != rs[i].Value {
			t.Errorf("batch item %d: HTTP %v (%q), facade %v (%v)", i, it.Value, it.Error, rs[i].Value, rs[i].Err)
		}
	}

	// Saturated ingest. Wedge each node's one-deep pipeline in turn: an
	// eviction hook parks the worker inside the store append (a reading
	// in window 1 evicts window 0), then a second upload fills the queue.
	for _, tc := range []struct {
		name  string
		owner *Platform
		at    Reading
	}{{"own slice", p0, own}, {"foreign slice", p1, foreign}} {
		t.Run("saturated "+tc.name, func(t *testing.T) {
			gate, parked := make(chan struct{}), make(chan struct{}, 2)
			unhook := tc.owner.stores[CO2].OnEvict(func([]int) { parked <- struct{}{}; <-gate })
			defer unhook()
			done := make(chan error, 2)
			wedge := func(at float64) {
				r := Reading{T: at, X: tc.at.X, Y: tc.at.Y, S: 400}
				go func() { done <- tc.owner.engine.Ingest(ctx, CO2, []Reading{r}) }()
			}
			// The second upload must find the worker already parked, or
			// the two would coalesce into one append and leave the queue
			// empty.
			wedge(3610)
			<-parked
			wedge(3620)
			deadline := time.Now().Add(10 * time.Second)
			for tc.owner.IngestStats().Queued < 2 {
				if time.Now().After(deadline) {
					t.Fatalf("queue never filled: %+v", tc.owner.IngestStats())
				}
				time.Sleep(time.Millisecond)
			}
			upload := []Reading{{T: 600, X: tc.at.X, Y: tc.at.Y, S: 400}}
			if err := p0.Ingest(ctx, CO2, upload); !errors.Is(err, ErrIngestSaturated) {
				t.Errorf("facade: %v, want ErrIngestSaturated", err)
			}
			body := fmt.Sprintf(`{"tuples":[{"T":600,"X":%v,"Y":%v,"S":400}]}`, tc.at.X, tc.at.Y)
			resp, err := http.Post(web.URL+"/v1/ingest", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != 429 || resp.Header.Get("Retry-After") == "" {
				t.Errorf("HTTP: status %d (Retry-After %q), want 429 with Retry-After", resp.StatusCode, resp.Header.Get("Retry-After"))
			}
			close(gate)
			for range 2 {
				if err := <-done; err != nil {
					t.Errorf("wedged ingest: %v", err)
				}
			}
		})
	}
}
