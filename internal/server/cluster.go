package server

import (
	"errors"
	"fmt"
	"net/http"

	"repro/internal/cluster"
	"repro/internal/wire"
)

// NewClusterAPI builds the HTTP API for one member of a sharded
// cluster: the node is the data endpoints' backend, and GET /v1/cluster
// serves the shard ring, the per-shard ownership table, and the routing
// counters.
func NewClusterAPI(engine *Engine, node *cluster.Node) *API {
	a := newAPI(node, engine, node)
	a.mux.HandleFunc("GET /v1/cluster", a.handleCluster)
	a.mux.HandleFunc("POST /v1/cluster/join", a.handleClusterJoin)
	a.mux.HandleFunc("POST /v1/cluster/drain", a.handleClusterDrain)
	return a
}

// clusterShards is the per-shard ownership table: pollutant -> node ID
// (as a string key, JSON objects key by string) -> owned cells.
type clusterShards map[string]map[string][]int

// clusterResponse is the GET /v1/cluster document. Ring is exactly the
// wire ring-exchange payload, so an HTTP client rebuilds the same
// cluster.Ring a TCP client gets from a RingRequest. Replication is
// present only on nodes of a replicated ring.
type clusterResponse struct {
	Self        int                       `json:"self"`
	Epoch       uint64                    `json:"epoch"`
	Ring        wire.RingResponse         `json:"ring"`
	Shards      clusterShards             `json:"shards"`
	Routing     cluster.Stats             `json:"routing"`
	Replication *cluster.ReplicationStats `json:"replication,omitempty"`
}

// handleCluster serves GET /v1/cluster.
func (a *API) handleCluster(w http.ResponseWriter, r *http.Request) {
	ring := a.node.Ring()
	shards := make(clusterShards, len(a.engine.Pollutants()))
	for _, pol := range a.engine.Pollutants() {
		perNode := make(map[string][]int, ring.Nodes())
		for n := 0; n < ring.Nodes(); n++ {
			if cells := ring.OwnedCells(n, pol); len(cells) > 0 {
				perNode[fmt.Sprint(n)] = cells
			}
		}
		shards[pol.String()] = perNode
	}
	resp := clusterResponse{
		Self:    a.node.Self(),
		Epoch:   ring.Epoch(),
		Ring:    ring.Wire(),
		Shards:  shards,
		Routing: a.node.Stats(),
	}
	if rs, ok := a.node.ReplicationStats(); ok {
		resp.Replication = &rs
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleClusterJoin serves POST /v1/cluster/join {"addr": "host:port"}
// — the HTTP form of the wire JoinRequest announce. It returns the
// pending next-epoch ring that includes addr as its last member; the
// membership does not change until the joiner bootstraps its shards
// and broadcasts the commit (Platform.CompleteJoin on the joiner).
func (a *API) handleClusterJoin(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Addr string `json:"addr"`
	}
	if !decodeBody(w, r, &body, nil) {
		return
	}
	if body.Addr == "" {
		writeError(w, http.StatusBadRequest, errors.New("join body needs addr"))
		return
	}
	switch resp := a.node.HandleMessage(wire.JoinRequest{Addr: body.Addr}).(type) {
	case wire.RingResponse:
		writeJSON(w, http.StatusOK, resp)
	case wire.ErrorResponse:
		writeError(w, http.StatusConflict, errors.New(resp.Msg))
	default:
		writeError(w, http.StatusInternalServerError, fmt.Errorf("unexpected join reply %T", resp))
	}
}

// handleClusterDrain serves POST /v1/cluster/drain: it removes this
// node from the cluster — peers bootstrap its shards from the retained
// replication streams before the new epoch commits — and reports the
// committed epoch. The process keeps serving (reads and the final
// handoff pulls) until the operator stops it.
func (a *API) handleClusterDrain(w http.ResponseWriter, r *http.Request) {
	if err := a.node.Drain(r.Context()); err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"drained": true,
		"epoch":   a.node.Ring().Epoch(),
	})
}
