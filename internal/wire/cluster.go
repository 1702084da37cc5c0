// Cluster messages: the frames that let EnviroMeter nodes form a sharded
// serving cluster. A router (or any node) forwards Query/Batch/Ingest
// frames to the shard owner and scatter-gathers heatmaps; clients fetch
// the consistent-hash ring once and then talk to owners directly.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/geo"
	"repro/internal/heatmap"
	"repro/internal/tuple"
)

// Cluster message type tags.
const (
	// TypeRingRequest asks a node for the cluster's shard ring.
	TypeRingRequest MsgType = iota + 8
	// TypeRingResponse carries the ring description.
	TypeRingResponse
	// Tag 10 is retired (it was IngestRequest with every tuple as four raw
	// IEEE words; an upload now travels packed under tag 33).

	// TypeIngestResponse acknowledges an applied ingest.
	TypeIngestResponse MsgType = 11
	// TypeHeatmapRequest asks for a rasterized cover.
	TypeHeatmapRequest MsgType = 12
	// Tag 13 is retired (it was HeatmapResponse with its values as raw
	// IEEE words; the raster now travels predictively coded under tag 29),
	// and so are tag 14 (it was NotOwnerResponse) and tag 15 (it was
	// Forwarded, whose epoch rode behind a marker byte only when nonzero;
	// the wrapper now travels under tag 32): a frame carrying any of them
	// decodes as unknown, and no message may take them again.

	// TypeHeatmapResponse carries the raster grid, its values
	// predictively coded (raster.go).
	TypeHeatmapResponse MsgType = 29
	// TypeForwarded wraps a request forwarded by a router so the owner
	// answers locally instead of re-forwarding.
	TypeForwarded MsgType = 32
	// TypeIngestRequest ships a batch of tuples for one pollutant, packed
	// (tuples.go).
	TypeIngestRequest MsgType = 33
)

// RingRequest asks a node for the cluster ring — how a peer refreshes
// its ring after an epoch fence. It has no payload.
type RingRequest struct{}

// Type implements Message.
func (RingRequest) Type() MsgType { return TypeRingRequest }

// RingResponse is the serialized shard ring: the node addresses (index =
// node ID), the geo-cell centroids that partition the region, and the
// virtual-node multiplier of the consistent-hash ring. Two parties
// holding equal RingResponses compute identical shard placements.
type RingResponse struct {
	Nodes  []string    `json:"nodes"`
	Cells  []geo.Point `json:"cells"`
	VNodes uint16      `json:"vnodes"`
	// Replicas is the cluster's replication factor R: each shard lives
	// on its owner plus R-1 ring successors. 0 and 1 both mean
	// "unreplicated".
	Replicas uint16 `json:"replicas,omitempty"`
	// Epoch is the membership epoch: it increments on every join, drain,
	// or promotion, so two parties can order ring versions and detect
	// mid-transition disagreement. A ring boots at epoch 0.
	Epoch uint64 `json:"epoch,omitempty"`
}

// Type implements Message.
func (RingResponse) Type() MsgType { return TypeRingResponse }

// IngestRequest ships a batch of tuples for one pollutant — the wire
// form of the upload a sensing bus performs, and the frame a router uses
// to forward each owner its slice of a mixed upload. The tuples travel as
// one packed run behind the pollutant (tuples.go).
type IngestRequest struct {
	Pollutant tuple.Pollutant `json:"pollutant"`
	Tuples    []tuple.Raw     `json:"tuples"`
}

// Type implements Message.
func (IngestRequest) Type() MsgType { return TypeIngestRequest }

// IngestResponse acknowledges an ingest: the batch (or, through a
// router, every shard's slice of it) has been applied.
type IngestResponse struct {
	Ingested uint32 `json:"ingested"`
}

// Type implements Message.
func (IngestResponse) Type() MsgType { return TypeIngestResponse }

// HeatmapRequest asks for a rasterized cover. With HasRegion unset the
// node rasterizes over its own data bounds; a router sets an explicit
// region so every shard rasterizes a comparable extent.
type HeatmapRequest struct {
	T         float64         `json:"t"`
	Pollutant tuple.Pollutant `json:"pollutant"`
	Cols      uint16          `json:"cols"`
	Rows      uint16          `json:"rows"`
	HasRegion bool            `json:"hasRegion"`
	Region    geo.Rect        `json:"region"`
}

// Type implements Message.
func (HeatmapRequest) Type() MsgType { return TypeHeatmapRequest }

// HeatmapResponse carries one node's raster: the region it covers and
// cols×rows cell values in row-major order, south row first.
type HeatmapResponse struct {
	Region geo.Rect  `json:"region"`
	Cols   uint16    `json:"cols"`
	Rows   uint16    `json:"rows"`
	T      float64   `json:"t"`
	Values []float64 `json:"values"`
}

// Type implements Message.
func (HeatmapResponse) Type() MsgType { return TypeHeatmapResponse }

// Forwarded wraps a request a router already routed: the receiver must
// answer it locally, never re-forward it, so one
// misconfigured ring cannot create a forwarding loop. Forwarded frames
// never nest.
type Forwarded struct {
	Inner Message `json:"-"`
	// Epoch is the epoch of the ring the sender routed under. A receiver
	// on a newer ring answers a routed read or write with an
	// epoch-mismatch error instead of serving a possibly-moved shard; the
	// sender then reconciles rings and re-routes.
	Epoch uint64 `json:"epoch,omitempty"`
}

// Type implements Message.
func (Forwarded) Type() MsgType { return TypeForwarded }

// appendCluster serializes the cluster messages (binary codec).
func appendCluster(dst []byte, head int, m Message) ([]byte, error) {
	switch v := m.(type) {
	case RingRequest:
		out, buf := grow(dst, head, 1)
		buf[0] = byte(TypeRingRequest)
		return out, nil
	case RingResponse:
		if len(v.Nodes) > math.MaxUint16 || len(v.Cells) > math.MaxUint16 {
			return dst, fmt.Errorf("wire: ring too large (%d nodes, %d cells)", len(v.Nodes), len(v.Cells))
		}
		size := 1 + 2
		for _, n := range v.Nodes {
			if len(n) > math.MaxUint16 {
				return dst, fmt.Errorf("wire: node address too long (%d bytes)", len(n))
			}
			size += 2 + len(n)
		}
		size += 2 + 16*len(v.Cells) + 2 + 2 + 8
		out, buf := grow(dst, head, size)
		buf[0] = byte(TypeRingResponse)
		binary.LittleEndian.PutUint16(buf[1:], uint16(len(v.Nodes)))
		off := 3
		for _, n := range v.Nodes {
			binary.LittleEndian.PutUint16(buf[off:], uint16(len(n)))
			off += 2 + copy(buf[off+2:], n)
		}
		binary.LittleEndian.PutUint16(buf[off:], uint16(len(v.Cells)))
		off += 2
		for _, c := range v.Cells {
			putF64(buf[off:], c.X)
			putF64(buf[off+8:], c.Y)
			off += 16
		}
		binary.LittleEndian.PutUint16(buf[off:], v.VNodes)
		binary.LittleEndian.PutUint16(buf[off+2:], v.Replicas)
		binary.LittleEndian.PutUint64(buf[off+4:], v.Epoch)
		return out, nil
	case IngestRequest:
		out, buf, err := appendRun(dst, head, 1+1, v.Tuples)
		if err != nil {
			return dst, err
		}
		buf[0] = byte(TypeIngestRequest)
		buf[1] = byte(v.Pollutant)
		return out, nil
	case IngestResponse:
		out, buf := grow(dst, head, 1+4)
		buf[0] = byte(TypeIngestResponse)
		binary.LittleEndian.PutUint32(buf[1:], v.Ingested)
		return out, nil
	case HeatmapRequest:
		size := 1 + 8 + 1 + 2 + 2 + 1
		if v.HasRegion {
			size += 32
		}
		out, buf := grow(dst, head, size)
		buf[0] = byte(TypeHeatmapRequest)
		putF64(buf[1:], v.T)
		buf[9] = byte(v.Pollutant)
		binary.LittleEndian.PutUint16(buf[10:], v.Cols)
		binary.LittleEndian.PutUint16(buf[12:], v.Rows)
		if v.HasRegion {
			buf[14] = 1
			putRect(buf[15:], v.Region)
		}
		return out, nil
	case HeatmapResponse:
		return appendHeatmapResponse(dst, head, v)
	case Forwarded:
		if v.Inner == nil {
			return dst, fmt.Errorf("%w: forwarded frame without inner message", ErrMalformed)
		}
		if _, nested := v.Inner.(Forwarded); nested {
			return dst, fmt.Errorf("%w: nested forwarded frame", ErrMalformed)
		}
		out, err := appendMsg(dst, head+1+8, v.Inner)
		if err != nil {
			return dst, err
		}
		hdr := out[len(dst)+head:]
		hdr[0] = byte(TypeForwarded)
		binary.LittleEndian.PutUint64(hdr[1:], v.Epoch)
		return out, nil
	default:
		return appendSubs(dst, head, m)
	}
}

// decodeCluster parses the cluster messages (binary codec).
func decodeCluster(data []byte, lend bool) (Message, error) {
	switch MsgType(data[0]) {
	case TypeRingRequest:
		if len(data) != 1 {
			return nil, fmt.Errorf("%w: RingRequest length %d", ErrMalformed, len(data))
		}
		return RingRequest{}, nil
	case TypeRingResponse:
		if len(data) < 3 {
			return nil, fmt.Errorf("%w: RingResponse header", ErrMalformed)
		}
		nNodes := int(binary.LittleEndian.Uint16(data[1:]))
		m := RingResponse{Nodes: make([]string, 0, min(nNodes, 256))}
		off := 3
		for i := 0; i < nNodes; i++ {
			if len(data) < off+2 {
				return nil, fmt.Errorf("%w: RingResponse node %d", ErrMalformed, i)
			}
			n := int(binary.LittleEndian.Uint16(data[off:]))
			if len(data) < off+2+n {
				return nil, fmt.Errorf("%w: RingResponse node %d address", ErrMalformed, i)
			}
			m.Nodes = append(m.Nodes, string(data[off+2:off+2+n]))
			off += 2 + n
		}
		if len(data) < off+2 {
			return nil, fmt.Errorf("%w: RingResponse cell count", ErrMalformed)
		}
		nCells := int(binary.LittleEndian.Uint16(data[off:]))
		off += 2
		// VNodes, Replicas and Epoch follow the cells.
		if len(data) != off+16*nCells+2+2+8 {
			return nil, fmt.Errorf("%w: RingResponse length %d for %d cells", ErrMalformed, len(data), nCells)
		}
		m.Cells = make([]geo.Point, nCells)
		for i := range m.Cells {
			m.Cells[i] = geo.Point{X: getF64(data[off:]), Y: getF64(data[off+8:])}
			off += 16
		}
		m.VNodes = binary.LittleEndian.Uint16(data[off:])
		m.Replicas = binary.LittleEndian.Uint16(data[off+2:])
		m.Epoch = binary.LittleEndian.Uint64(data[off+4:])
		return m, nil
	case TypeIngestRequest:
		if len(data) < 2 {
			return nil, fmt.Errorf("%w: IngestRequest header", ErrMalformed)
		}
		tuples, box, err := decodeRun(data[2:], "IngestRequest", lend)
		if err != nil {
			return nil, err
		}
		return inBox(box, IngestRequest{Pollutant: tuple.Pollutant(data[1]), Tuples: tuples}), nil
	case TypeIngestResponse:
		if len(data) != 5 {
			return nil, fmt.Errorf("%w: IngestResponse length %d", ErrMalformed, len(data))
		}
		return IngestResponse{Ingested: binary.LittleEndian.Uint32(data[1:])}, nil
	case TypeHeatmapRequest:
		if len(data) != 15 && len(data) != 47 {
			return nil, fmt.Errorf("%w: HeatmapRequest length %d", ErrMalformed, len(data))
		}
		m := HeatmapRequest{
			T:         getF64(data[1:]),
			Pollutant: tuple.Pollutant(data[9]),
			Cols:      binary.LittleEndian.Uint16(data[10:]),
			Rows:      binary.LittleEndian.Uint16(data[12:]),
		}
		switch {
		case data[14] == 1 && len(data) == 47:
			m.HasRegion = true
			m.Region = getRect(data[15:])
		case data[14] == 0 && len(data) == 15:
			// no region
		default:
			return nil, fmt.Errorf("%w: HeatmapRequest region flag %d for length %d", ErrMalformed, data[14], len(data))
		}
		return m, nil
	case TypeHeatmapResponse:
		return decodeHeatmapResponse(data, lend)
	case TypeForwarded:
		if len(data) < 1+8+1 {
			return nil, fmt.Errorf("%w: forwarded frame without inner message", ErrMalformed)
		}
		if MsgType(data[9]) == TypeForwarded {
			return nil, fmt.Errorf("%w: nested forwarded frame", ErrMalformed)
		}
		inner, err := decode(data[9:], lend)
		if err != nil {
			return nil, err
		}
		return Forwarded{Inner: inner, Epoch: binary.LittleEndian.Uint64(data[1:])}, nil
	default:
		return decodeSubs(data, lend)
	}
}

// HeatmapResponseFromGrid serializes a raster grid into its wire form.
func HeatmapResponseFromGrid(g *heatmap.Grid) (HeatmapResponse, error) {
	if g == nil {
		return HeatmapResponse{}, fmt.Errorf("%w: nil heatmap grid", ErrMalformed)
	}
	if g.Cols > math.MaxUint16 || g.Rows > math.MaxUint16 {
		return HeatmapResponse{}, fmt.Errorf("wire: heatmap %dx%d too large", g.Cols, g.Rows)
	}
	return HeatmapResponse{
		Region: g.Region,
		Cols:   uint16(g.Cols),
		Rows:   uint16(g.Rows),
		T:      g.T,
		Values: g.Values,
	}, nil
}

// Grid reconstructs the raster grid a heatmap response carries.
func (v HeatmapResponse) Grid() *heatmap.Grid {
	return &heatmap.Grid{
		Region: v.Region,
		Cols:   int(v.Cols),
		Rows:   int(v.Rows),
		T:      v.T,
		Values: v.Values,
	}
}

func putRect(b []byte, r geo.Rect) {
	putF64(b, r.Min.X)
	putF64(b[8:], r.Min.Y)
	putF64(b[16:], r.Max.X)
	putF64(b[24:], r.Max.Y)
}

func getRect(b []byte) geo.Rect {
	return geo.Rect{
		Min: geo.Point{X: getF64(b), Y: getF64(b[8:])},
		Max: geo.Point{X: getF64(b[16:]), Y: getF64(b[24:])},
	}
}
