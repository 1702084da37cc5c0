package server

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/heatmap"
	"repro/internal/query"
	"repro/internal/subs"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// ErrNotRoutable is returned for request features that cannot cross the
// cluster — today, the radius/processor query options, which evaluate
// raw windows only the shard owner holds. The HTTP layer maps it to 400.
var ErrNotRoutable = errors.New("server: request options are not routable; send it to the shard owner")

// Service is the serving path every surface shares: the facade
// (repro.Platform) and the HTTP handlers both call it, and it alone
// decides whether the local engine or the cluster node executes a
// request. On a single node (node == nil) everything runs on the
// engine; clustered, shards this node owns answer from the engine,
// foreign shards forward through the node, and heatmaps, model covers
// and subscriptions scatter across it. Failures come back as the same
// sentinels either way (see cluster.ErrorFromWire).
type Service struct {
	engine *Engine
	node   *cluster.Node // nil when single-node
}

// NewService builds the serving path over engine, routed through node
// when the deployment is clustered (nil otherwise).
func NewService(engine *Engine, node *cluster.Node) *Service {
	return &Service{engine: engine, node: node}
}

// owns reports whether the local engine holds pollutant pol at (x, y):
// always on a single node, by ring ownership when clustered.
func (s *Service) owns(pol tuple.Pollutant, x, y float64) bool {
	return s.node == nil || s.node.Ring().Owner(pol, geo.Point{X: x, Y: y}) == s.node.Self()
}

// routable reports whether o can cross the cluster: only the
// model-cover path travels (Concurrency is applied wherever the batch
// executes, so it never blocks routing).
func routable(o query.Options) bool {
	return (o.Kind == "" || o.Kind == query.KindCover) && o.Radius == 0
}

func notRoutable(o query.Options) error {
	return fmt.Errorf("%w: processor=%v radius=%v", ErrNotRoutable, o.Kind, o.Radius)
}

// Query answers one point query. Non-default processor options only
// work on shards this node owns — the raw window lives with the owner —
// so a foreign-shard request carrying them fails with ErrNotRoutable
// rather than silently answering from the wrong node's data.
func (s *Service) Query(ctx context.Context, req query.Request, o query.Options) (float64, error) {
	if s.owns(req.Pollutant, req.X, req.Y) {
		return s.engine.QueryOpts(ctx, req, o)
	}
	if !routable(o) {
		return 0, notRoutable(o)
	}
	return s.node.Query(ctx, req)
}

// QueryBatch answers a batch with per-item results, splitting it across
// shard owners when clustered. Non-default processor options require
// every request to land on this node's shards (ErrNotRoutable otherwise).
func (s *Service) QueryBatch(ctx context.Context, reqs []query.Request, o query.Options) ([]query.BatchResult, error) {
	if s.node != nil && routable(o) {
		return s.node.QueryBatch(ctx, reqs)
	}
	for _, r := range reqs {
		if !s.owns(r.Pollutant, r.X, r.Y) {
			return nil, notRoutable(o)
		}
	}
	return s.engine.QueryBatchOpts(ctx, reqs, o)
}

// Ingest applies an upload. On a single node a full queue blocks until
// there is space. Clustered, the upload splits by shard owner and every
// slice, this node's own included, commits through the node: that is
// what appends it to the replication log replicas and membership
// handoffs stream from. A clustered ingest therefore never waits for
// queue space — a saturated owner sheds its slice with
// ingest.ErrSaturated, retryable when no slice applied and
// cluster.ErrPartialIngest when some did — on every surface alike.
func (s *Service) Ingest(ctx context.Context, pol tuple.Pollutant, b tuple.Batch) error {
	if s.node != nil {
		return s.node.Ingest(ctx, pol, b)
	}
	return s.engine.Ingest(ctx, pol, b)
}

// TryIngest is Ingest that sheds on a single node too: the HTTP edge
// answers an overloaded server with 429s instead of holding connections
// open against a full queue.
func (s *Service) TryIngest(ctx context.Context, pol tuple.Pollutant, b tuple.Batch) error {
	if s.node != nil {
		return s.node.Ingest(ctx, pol, b)
	}
	return s.engine.TryIngest(ctx, pol, b)
}

// Heatmap rasterizes pol's cover at t over the data region,
// scatter-gathering across the cluster when one is configured. A
// replicated cluster may return a usable grid alongside a
// *cluster.PartialError.
func (s *Service) Heatmap(ctx context.Context, pol tuple.Pollutant, t float64, cols, rows int) (*heatmap.Grid, error) {
	if s.node != nil {
		return s.node.Heatmap(ctx, pol, t, cols, rows)
	}
	return s.engine.Heatmap(ctx, pol, t, cols, rows)
}

// HeatmapCoverInto is Heatmap rendering into g, plus the cover to
// annotate the raster from (centroid markers). A single node renders
// into g and returns it, resolving the cover once, so a rebuild landing
// mid-request cannot split raster and markers across cover generations.
// Clustered, the grid is the scatter-gather's own and g is left
// untouched; the cover is merged across shards (a second scatter) so
// every shard's centroids appear. The caller may reuse g once it has
// finished with the returned grid.
func (s *Service) HeatmapCoverInto(ctx context.Context, g *heatmap.Grid, pol tuple.Pollutant, t float64, cols, rows int) (*heatmap.Grid, *core.Cover, error) {
	if s.node == nil {
		cv, err := s.engine.heatmap(ctx, g, pol, t, cols, rows, nil)
		if err != nil {
			return nil, nil, err
		}
		return g, cv, nil
	}
	grid, err := s.node.Heatmap(ctx, pol, t, cols, rows)
	if err != nil && !errors.Is(err, cluster.ErrPartialResult) {
		return nil, nil, err
	}
	cv, coverErr := s.Cover(ctx, pol, t)
	if coverErr != nil && !errors.Is(coverErr, cluster.ErrPartialResult) {
		return nil, nil, coverErr
	}
	if err == nil {
		err = coverErr
	}
	return grid, cv, err
}

// Model returns the wire form of pol's cover at t — what a model-cache
// client downloads — merged across every node's cover when clustered.
func (s *Service) Model(ctx context.Context, pol tuple.Pollutant, t float64) (wire.ModelResponse, error) {
	if s.node != nil {
		return s.node.Model(ctx, pol, t)
	}
	cv, err := s.engine.CoverAt(ctx, pol, t)
	if err != nil {
		return wire.ModelResponse{}, err
	}
	return wire.ModelResponseFromCover(cv)
}

// Cover returns pol's model cover valid at t. Clustered, it is rebuilt
// from the merged Model, so evaluating it anywhere in the region answers
// from the owning shard's models; a partial merge returns the usable
// cover alongside its *cluster.PartialError.
func (s *Service) Cover(ctx context.Context, pol tuple.Pollutant, t float64) (*core.Cover, error) {
	if s.node == nil {
		return s.engine.CoverAt(ctx, pol, t)
	}
	mr, err := s.node.Model(ctx, pol, t)
	if err != nil && !errors.Is(err, cluster.ErrPartialResult) {
		return nil, err
	}
	cv, convErr := wire.CoverFromModelResponse(mr)
	if convErr != nil {
		return nil, convErr
	}
	return cv, err
}

// Subscribe opens a push subscription — merged pushes from every shard
// owner through the node when clustered, else the local registry.
func (s *Service) Subscribe(ctx context.Context, pol tuple.Pollutant, pts []query.Request) (subs.Handle, error) {
	if s.node != nil {
		return s.node.Subscribe(ctx, pol, pts)
	}
	return s.engine.Subscribe(ctx, pol, pts)
}

// continuousETag hashes a continuous-query route — its points and, per
// distinct route window, the generation of the cover that is served for
// it — into an entity tag. A write alone does not change the tag: while
// the window's rebuild is pending the answer is still the previous
// cover's, and a 304 is correct. Computed BEFORE evaluation, and the
// served generation never decreases, so a rebuild landing in between can
// only make a later If-None-Match miss (an extra 200), never serve a
// stale 304. ok is false when clustered: a routed batch would need the
// foreign shards' generations.
func (s *Service) continuousETag(pol tuple.Pollutant, reqs []query.Request) (etag string, ok bool) {
	if s.node != nil {
		return "", false
	}
	st, err := s.engine.StoreFor(pol)
	if err != nil {
		return "", false
	}
	mnt, err := s.engine.MaintainerFor(pol)
	if err != nil {
		return "", false
	}
	hsh := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		_, _ = hsh.Write(buf[:])
	}
	put(uint64(pol))
	put(uint64(len(reqs)))
	seen := make(map[int]struct{})
	for _, q := range reqs {
		put(math.Float64bits(q.T))
		put(math.Float64bits(q.X))
		put(math.Float64bits(q.Y))
		c := tuple.WindowIndex(q.T, st.WindowLength())
		if _, ok := seen[c]; !ok {
			seen[c] = struct{}{}
			put(uint64(c))
			put(mnt.ServedGeneration(c))
		}
	}
	return fmt.Sprintf("\"cq-%016x\"", hsh.Sum64()), true
}
