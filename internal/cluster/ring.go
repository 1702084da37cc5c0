// Package cluster implements the sharded multi-node serving layer: a
// deterministic geo-cell partition of the deployment region (Cells,
// k-means over a uniform lattice), a consistent-hash ring mapping
// (pollutant, geo-cell) shard keys onto engine nodes (Ring), and the
// Node router that answers owned shards from its local engine, forwards
// single-shard wire requests to their owners, and scatter-gathers the
// cross-shard ones (heatmaps, model covers). A Node with no local
// engine (Self = -1) is a pure query router.
//
// Placement is configuration-deterministic: every party that holds the
// same Desc — node addresses, cell centroids, virtual-node multiplier —
// computes identical shard owners, so the ring travels as one
// wire.RingResponse and never needs consensus.
package cluster

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/geo"
	"repro/internal/kmeans"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// DefaultVNodes is the virtual-node multiplier used when a Desc does not
// set one: each physical node owns this many points on the hash ring, so
// shard keys spread evenly even for small clusters.
const DefaultVNodes = 64

// ShardKey identifies one shard: a (pollutant, geo-cell) pair. Every raw
// tuple and every positional query maps to exactly one shard, and the
// ring maps every shard to exactly one owner node.
type ShardKey struct {
	Pollutant tuple.Pollutant
	Cell      int
}

// Desc is the serializable cluster description every party must agree
// on: the node addresses (index = node ID), the geo-cell centroids
// partitioning the region, and the virtual-node multiplier. Two parties
// holding equal Descs compute identical shard placements — the property
// the ring-exchange protocol distributes.
type Desc struct {
	// Nodes are the wire-protocol addresses of the cluster nodes; a
	// node's index in this slice is its stable node ID. An empty
	// address is a tombstone: the slot of a drained or dead node, kept
	// so surviving IDs — and therefore their ring positions — never
	// shift. Tombstoned nodes own nothing and hold no replicas.
	Nodes []string
	// Cells are the geo-cell centroids; a point belongs to the nearest
	// centroid (the same nearest-centroid rule Ad-KMN covers use).
	Cells []geo.Point
	// VNodes is the virtual-node multiplier (0 = DefaultVNodes).
	VNodes int
	// Replicas is the replication factor R: each shard lives on its
	// owner plus the owner's R-1 mirrors, the next R-1 live node IDs
	// after it, wrapping (see place). 0 and 1 both mean unreplicated.
	Replicas int
	// Epoch is the membership epoch: a ring boots at 0, and every join,
	// drain, or promotion increments it. Parties holding different
	// epochs hold different membership and must reconcile before routing
	// to each other.
	Epoch uint64
}

// Cells builds a deterministic geo-cell partition of region: a uniform
// lattice of sample points clustered with the package's k-means++ into n
// cell centroids. The same (region, n, seed) always yields the same
// cells, so every node and client derives an identical shard map from
// configuration alone.
func Cells(region geo.Rect, n int, seed int64) ([]geo.Point, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: %d cells, want >= 1", n)
	}
	if !region.Valid() {
		return nil, fmt.Errorf("cluster: invalid cell region %v", region)
	}
	// Degenerate (zero-area) regions still need distinct lattice points
	// for k-means to seed from; inflate like the heatmap path does.
	if region.Area() == 0 {
		region = region.Inflate(100)
	}
	// A lattice with ~8x oversampling keeps k-means centroids spread over
	// the whole region rather than collapsing onto a few sample points.
	side := 1
	for side*side < 8*n {
		side++
	}
	pts := make([]geo.Point, 0, side*side)
	dx := (region.Max.X - region.Min.X) / float64(side)
	dy := (region.Max.Y - region.Min.Y) / float64(side)
	for j := 0; j < side; j++ {
		for i := 0; i < side; i++ {
			pts = append(pts, geo.Point{
				X: region.Min.X + (float64(i)+0.5)*dx,
				Y: region.Min.Y + (float64(j)+0.5)*dy,
			})
		}
	}
	res, err := kmeans.Run(pts, n, kmeans.Config{Seed: seed})
	if err != nil {
		return nil, err
	}
	return res.Centroids, nil
}

// ringPoint is one virtual node on the hash circle.
type ringPoint struct {
	hash uint64
	node int
}

// pollutants is the number of valid pollutant bytes: the pollutant rows
// of every ring's placement table.
var pollutants = func() int {
	n := 0
	for tuple.Pollutant(n).Valid() {
		n++
	}
	return n
}()

// Ring is a consistent-hash ring mapping shard keys onto nodes. NewRing
// walks the hash circle once and keeps what the walk placed as a table,
// so every placement lookup is an index: a ring, and so its table, is
// fixed for its epoch. It is immutable after construction and safe for
// concurrent use.
type Ring struct {
	desc Desc
	live int
	// reps holds each valid shard's replica set, owner first: shard
	// (pol, cell)'s R nodes are reps[s*R : (s+1)*R], s = pol*cells + cell.
	reps []int
	// owned and peers list node n's owned cells and replica peers of
	// pollutant pol at [ownedOff[j], ownedOff[j+1]) and [peerOff[j],
	// peerOff[j+1]), j = n*pollutants + pol.
	owned, ownedOff []int
	peers, peerOff  []int
}

// NewRing builds the ring for a cluster description.
func NewRing(desc Desc) (*Ring, error) {
	if len(desc.Nodes) == 0 {
		return nil, errors.New("cluster: ring needs at least one node")
	}
	live := 0
	for _, addr := range desc.Nodes {
		if addr != "" {
			live++
		}
	}
	if live == 0 {
		return nil, errors.New("cluster: ring needs at least one live node")
	}
	if len(desc.Cells) == 0 {
		return nil, errors.New("cluster: ring needs at least one cell")
	}
	if desc.VNodes == 0 {
		desc.VNodes = DefaultVNodes
	}
	if desc.VNodes < 1 {
		return nil, fmt.Errorf("cluster: %d virtual nodes, want >= 1", desc.VNodes)
	}
	if desc.Replicas < 0 {
		return nil, fmt.Errorf("cluster: %d replicas, want >= 0", desc.Replicas)
	}
	if desc.Replicas > live {
		return nil, fmt.Errorf("cluster: %d replicas for %d live nodes", desc.Replicas, live)
	}
	if desc.Replicas == 0 {
		desc.Replicas = 1
	}
	points := make([]ringPoint, 0, live*desc.VNodes)
	for n := range desc.Nodes {
		if desc.Nodes[n] == "" {
			// Tombstoned: the slot keeps its ID but places no virtual
			// nodes, so its former shards fall to their ring successors
			// while every survivor's placement is untouched.
			continue
		}
		for v := 0; v < desc.VNodes; v++ {
			points = append(points, ringPoint{hash: vnodeHash(n, v), node: n})
		}
	}
	sort.Slice(points, func(i, j int) bool {
		if points[i].hash != points[j].hash {
			return points[i].hash < points[j].hash
		}
		// Colliding virtual nodes order by node ID so every party breaks
		// the tie identically.
		return points[i].node < points[j].node
	})
	r := &Ring{desc: desc, live: live}
	r.place(points)
	return r, nil
}

// place fills the ring's table. A shard's owner is the first node
// clockwise of its key on the sorted hash circle, wrapping at the top.
// Its other R-1 replicas are the owner's mirrors: the next R-1 live
// slots after the owner in ID order, wrapping (the successor list of
// chain replication, kept per node rather than per shard). A mirror
// holds its origin's whole stream, so keeping one mirror set per node
// means each primary streams to exactly R-1 peers however many cells it
// owns. R never exceeds the live nodes, so every node has R-1 mirrors.
func (r *Ring) place(points []ringPoint) {
	R, cells, nodes := r.desc.Replicas, len(r.desc.Cells), len(r.desc.Nodes)
	mirrors := make([]int, 0, nodes*(R-1))
	for n := range nodes {
		for m := n + 1; len(mirrors) < (n+1)*(R-1); m++ {
			if r.IsLive(m % nodes) {
				mirrors = append(mirrors, m%nodes)
			}
		}
	}
	mirrorsOf := func(n int) []int { return mirrors[n*(R-1) : (n+1)*(R-1)] }
	r.reps = make([]int, 0, pollutants*cells*R)
	for pol := range pollutants {
		for c := range cells {
			h := keyHash(ShardKey{Pollutant: tuple.Pollutant(pol), Cell: c})
			i := sort.Search(len(points), func(i int) bool { return points[i].hash >= h })
			owner := points[i%len(points)].node
			r.reps = append(append(r.reps, owner), mirrorsOf(owner)...)
		}
	}
	r.owned, r.ownedOff = make([]int, 0, pollutants*cells), make([]int, nodes*pollutants+1)
	r.peerOff = make([]int, nodes*pollutants+1)
	for n := range nodes {
		for pol := range pollutants {
			first := len(r.owned)
			for c := range cells {
				if r.reps[(pol*cells+c)*R] == n {
					r.owned = append(r.owned, c)
				}
			}
			if len(r.owned) > first {
				r.peers = append(r.peers, mirrorsOf(n)...)
			}
			j := n*pollutants + pol
			r.ownedOff[j+1], r.peerOff[j+1] = len(r.owned), len(r.peers)
		}
	}
}

// RingFromWire reconstructs a ring from a received ring-exchange frame.
func RingFromWire(resp wire.RingResponse) (*Ring, error) {
	return NewRing(Desc{
		Nodes: resp.Nodes, Cells: resp.Cells,
		VNodes: int(resp.VNodes), Replicas: int(resp.Replicas),
		Epoch: resp.Epoch,
	})
}

// Wire returns the ring-exchange frame describing this ring. An
// unreplicated ring (R = 1) carries Replicas 0, so /v1/cluster leaves the
// field out of its JSON.
func (r *Ring) Wire() wire.RingResponse {
	w := wire.RingResponse{
		Nodes: r.desc.Nodes, Cells: r.desc.Cells,
		VNodes: uint16(r.desc.VNodes), Epoch: r.desc.Epoch,
	}
	if r.desc.Replicas > 1 {
		w.Replicas = uint16(r.desc.Replicas)
	}
	return w
}

// Desc returns the cluster description the ring was built from (with
// defaults applied).
func (r *Ring) Desc() Desc { return r.desc }

// Nodes returns the number of node slots, tombstones included (node IDs
// range over [0, Nodes())).
func (r *Ring) Nodes() int { return len(r.desc.Nodes) }

// Live returns the number of live (non-tombstoned) nodes.
func (r *Ring) Live() int { return r.live }

// IsLive reports whether node n is a live member (in range and not
// tombstoned).
func (r *Ring) IsLive(n int) bool {
	return n >= 0 && n < len(r.desc.Nodes) && r.desc.Nodes[n] != ""
}

// Epoch returns the ring's membership epoch.
func (r *Ring) Epoch() uint64 { return r.desc.Epoch }

// Cells returns the number of geo cells.
func (r *Ring) Cells() int { return len(r.desc.Cells) }

// Addr returns the wire address of node n.
func (r *Ring) Addr(n int) string {
	if n < 0 || n >= len(r.desc.Nodes) {
		return ""
	}
	return r.desc.Nodes[n]
}

// CellOf assigns a position to its geo cell: the nearest cell centroid,
// by the same rule model covers use to pick a region model.
func (r *Ring) CellOf(p geo.Point) int { return kmeans.Nearest(r.desc.Cells, p) }

// shard returns k's row in the ring's table; ok is false for a key the
// ring does not place (an invalid pollutant, a cell out of range).
func (r *Ring) shard(k ShardKey) (s int, ok bool) {
	if !k.Pollutant.Valid() || k.Cell < 0 || k.Cell >= len(r.desc.Cells) {
		return 0, false
	}
	return int(k.Pollutant)*len(r.desc.Cells) + k.Cell, true
}

// OwnerKey returns the node owning a shard key, or -1 for a key the ring
// does not place (an invalid pollutant, a cell out of range).
func (r *Ring) OwnerKey(k ShardKey) int {
	s, ok := r.shard(k)
	if !ok {
		return -1
	}
	return r.reps[s*r.desc.Replicas]
}

// Owner returns the node owning pollutant pol at position p (-1 for an
// invalid pollutant).
func (r *Ring) Owner(pol tuple.Pollutant, p geo.Point) int {
	return r.OwnerKey(ShardKey{Pollutant: pol, Cell: r.CellOf(p)})
}

// Replicas returns the effective replication factor R (>= 1).
func (r *Ring) Replicas() int { return r.desc.Replicas }

// ReplicasFor returns the R nodes holding a shard key: the owner first,
// then the owner's mirrors in successor order (see place). The slice is
// the ring's own, clipped to its length so that appending to it copies;
// it is nil for a key the ring does not place.
func (r *Ring) ReplicasFor(k ShardKey) []int {
	s, ok := r.shard(k)
	if !ok {
		return nil
	}
	R := r.desc.Replicas
	return r.reps[s*R : (s+1)*R : (s+1)*R]
}

// nodeRow returns the (node, pollutant) row of lists starting at off.
func (r *Ring) nodeRow(list, off []int, n int, pol tuple.Pollutant) []int {
	if n < 0 || n >= len(r.desc.Nodes) || !pol.Valid() {
		return nil
	}
	j := n*pollutants + int(pol)
	return list[off[j]:off[j+1]:off[j+1]]
}

// ReplicaPeers lists node n's mirrors (in successor order, excluding n
// itself) when n owns a shard of pollutant pol, and nothing otherwise —
// the peers a primary streams its commits to. With R = 1 it is always
// empty. Like ReplicasFor, the slice is the ring's own.
func (r *Ring) ReplicaPeers(n int, pol tuple.Pollutant) []int {
	return r.nodeRow(r.peers, r.peerOff, n, pol)
}

// OwnedCells lists the cells of pollutant pol owned by node n, in
// ascending cell order — the per-shard breakdown /v1/cluster reports.
// Like ReplicasFor, the slice is the ring's own.
func (r *Ring) OwnedCells(n int, pol tuple.Pollutant) []int {
	return r.nodeRow(r.owned, r.ownedOff, n, pol)
}

// JoinDesc returns the next-epoch description with addr appended as a
// new node (ID = Nodes()). Because placement hashes node indexes, every
// surviving shard either stays put or moves onto the new node — never
// between survivors.
func (r *Ring) JoinDesc(addr string) (Desc, error) {
	if addr == "" {
		return Desc{}, errors.New("cluster: join needs a node address")
	}
	for n, a := range r.desc.Nodes {
		if a == addr {
			return Desc{}, fmt.Errorf("cluster: %s is already node %d", addr, n)
		}
	}
	d := r.desc
	d.Nodes = append(append([]string(nil), r.desc.Nodes...), addr)
	d.Epoch++
	return d, nil
}

// TombstoneDesc returns the next-epoch description with node n
// tombstoned — the ring shape of both a drain and a dead-primary
// promotion. The slot keeps its ID so no survivor's ownership shifts;
// n's shards fall to their hash successors, which need not hold n's
// mirror (a gaining node may have to pull n's stream from a mirror).
// The mirror sets of the R-1 live nodes before n move on by one slot.
// If removing n leaves fewer live nodes than the replication factor, R
// is clamped down: availability over a replica count the membership can
// no longer satisfy.
func (r *Ring) TombstoneDesc(n int) (Desc, error) {
	if !r.IsLive(n) {
		return Desc{}, fmt.Errorf("cluster: node %d is not a live member", n)
	}
	if r.live == 1 {
		return Desc{}, errors.New("cluster: cannot remove the last live node")
	}
	d := r.desc
	d.Nodes = append([]string(nil), r.desc.Nodes...)
	d.Nodes[n] = ""
	if d.Replicas > r.live-1 {
		d.Replicas = r.live - 1
	}
	d.Epoch++
	return d, nil
}

// vnodeHash positions virtual node v of node n on the circle. Placement
// hashes the node *index*, not its address, so re-addressing a node
// (new port, new host) never migrates shards.
func vnodeHash(n, v int) uint64 {
	h := fnv.New64a()
	var buf [16]byte
	putU64(buf[:8], uint64(n))
	putU64(buf[8:], uint64(v))
	h.Write(buf[:])
	return mix64(h.Sum64())
}

// keyHash positions a shard key on the circle.
func keyHash(k ShardKey) uint64 {
	h := fnv.New64a()
	var buf [9]byte
	buf[0] = byte(k.Pollutant)
	putU64(buf[1:], uint64(k.Cell))
	h.Write(buf[:])
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer. FNV-1a alone avalanches poorly on
// short, low-entropy inputs (sequential node/cell indexes padded with
// zero bytes) — badly enough that a 3-node ring can hand every shard to
// one node; the finalizer restores uniform placement.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
