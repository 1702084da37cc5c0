package repro

// An invalid pollutant is refused alike everywhere: every request kind,
// over the wire protocol, over HTTP and through the facade, by a single
// node and by a cluster node — which answers it itself, since its ring
// places the pollutant on no node.

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/proto"
	"repro/internal/wire"
)

func TestUnknownPollutantRefusedAlike(t *testing.T) {
	const bad = Pollutant(9) // no pollutant has this byte
	ctx := context.Background()
	readings := make([]Reading, 0, 225)
	for x := -1400.0; x <= 1400; x += 200 {
		for y := -1400.0; y <= 1400; y += 200 {
			readings = append(readings, Reading{T: 600, X: x, Y: y, S: clusterField(x, y)})
		}
	}
	for _, clustered := range []bool{false, true} {
		name := "single node"
		if clustered {
			name = "cluster"
		}
		t.Run(name, func(t *testing.T) {
			addrs := reservePorts(t, 2)
			open := func(id int) *Platform {
				cfg := Config{WindowSeconds: 3600, Pollutants: []Pollutant{CO2}}
				if clustered {
					cfg.Cluster = ClusterConfig{
						Nodes: addrs, NodeID: id, Cells: 6,
						Region: Rect{Min: Point{X: -1500, Y: -1500}, Max: Point{X: 1500, Y: 1500}},
					}
				}
				p, err := Open(cfg)
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
			p := open(0)
			if clustered {
				open(1)
			}
			if err := p.Ingest(ctx, CO2, readings); err != nil {
				t.Fatal(err)
			}
			good := Request{T: 600, X: 100, Y: 100, Pollutant: CO2}

			// The facade.
			if _, err := p.Query(ctx, Request{T: 600, X: 100, Y: 100, Pollutant: bad}); !errors.Is(err, ErrUnknownPollutant) {
				t.Errorf("facade query: %v, want ErrUnknownPollutant", err)
			}
			rs, err := p.QueryBatch(ctx, []Request{good, {T: 600, X: 100, Y: 100, Pollutant: bad}})
			if err != nil || rs[0].Err != nil || !errors.Is(rs[1].Err, ErrUnknownPollutant) {
				t.Errorf("facade batch: %v, items %+v; want item 1 alone ErrUnknownPollutant", err, rs)
			}
			if err := p.Ingest(ctx, bad, readings[:4]); !errors.Is(err, ErrUnknownPollutant) {
				t.Errorf("facade ingest: %v, want ErrUnknownPollutant", err)
			}
			if _, err := p.ModelResponse(ctx, bad, 600); !errors.Is(err, ErrUnknownPollutant) {
				t.Errorf("facade model: %v, want ErrUnknownPollutant", err)
			}
			if _, err := p.Heatmap(ctx, bad, 600, 8, 8); !errors.Is(err, ErrUnknownPollutant) {
				t.Errorf("facade heatmap: %v, want ErrUnknownPollutant", err)
			}

			// The wire protocol.
			c, err := proto.Dial(addrs[0], proto.ServerConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			for _, req := range []wire.Message{
				wire.QueryRequest{T: 600, X: 100, Y: 100, Pollutant: bad},
				wire.IngestRequest{Pollutant: bad, Tuples: readings[:4]},
				wire.ModelRequest{T: 600, Pollutant: bad},
				wire.HeatmapRequest{T: 600, Pollutant: bad, Cols: 8, Rows: 8},
			} {
				resp, err := c.Exchange(req)
				if er, ok := resp.(wire.ErrorResponse); err != nil || !ok || er.Code != wire.CodeUnknownPollutant {
					t.Errorf("wire %T: %#v (%v), want code %d", req, resp, err, wire.CodeUnknownPollutant)
				}
			}
			resp, err := c.Exchange(wire.BatchQueryRequest{Items: []wire.QueryRequest{
				{T: 600, X: 100, Y: 100, Pollutant: CO2},
				{T: 600, X: 100, Y: 100, Pollutant: bad},
			}})
			if br, ok := resp.(wire.BatchQueryResponse); err != nil || !ok || len(br.Items) != 2 ||
				br.Items[0].Err != "" || br.Items[1].Code() != wire.CodeUnknownPollutant {
				t.Errorf("wire batch: %#v (%v), want item 1 alone code %d", resp, err, wire.CodeUnknownPollutant)
			}

			// HTTP names a pollutant, so the invalid one is a name that maps
			// to no pollutant byte.
			web := httptest.NewServer(p.Handler())
			defer web.Close()
			for _, r := range []struct{ method, path, body string }{
				{"GET", "/v1/query?t=600&x=100&y=100&pollutant=XX", ""},
				{"POST", "/v1/query/batch", `{"requests":[{"t":600,"x":100,"y":100},{"t":600,"x":100,"y":100,"pollutant":"XX"}]}`},
				{"POST", "/v1/ingest?pollutant=XX", `{"tuples":[{"T":600,"X":100,"Y":100,"S":400}]}`},
				{"GET", "/v1/models?t=600&pollutant=XX", ""},
				{"GET", "/v1/heatmap?t=600&cols=8&rows=8&pollutant=XX", ""},
			} {
				req, err := http.NewRequest(r.method, web.URL+r.path, strings.NewReader(r.body))
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), ErrUnknownPollutant.Error()) {
					t.Errorf("HTTP %s %s: %d %s, want 400 naming %q", r.method, r.path, resp.StatusCode, body, ErrUnknownPollutant)
				}
			}
		})
	}
}
