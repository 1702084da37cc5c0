package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net/url"
	"strconv"

	"repro/internal/geo"
	"repro/internal/sim"
	"repro/internal/tuple"
	"repro/internal/wire"
)

const pollutant = tuple.CO2

// op is one pre-generated client operation.
type op struct {
	kind   opKind
	live   bool // read aimed at the live window
	t      float64
	pts    []wire.QueryRequest // opRoute
	tuples tuple.Batch         // opIngest
	// HTTP form, encoded at generation time: a browser's JSON encoder is
	// not part of the system under test.
	path string
	body []byte
}

// inputs is everything a run feeds the system: made from the seed and
// nothing else.
type inputs struct {
	preload tuple.Batch
	ops     []op // warm-up prefix, then the measured segments
	warmup  int  // len of the warm-up prefix
	segLen  int  // operations per measured segment
	// stream is every tuple of preload and of the writes in ops, in stream
	// order: what the durability oracle expects the primaries to hold.
	stream tuple.Batch
}

func (in *inputs) segment(s int) (lo, hi int) {
	lo = in.warmup + s*in.segLen
	return lo, lo + in.segLen
}

// opCounts returns how many operations of each kind a block of n
// operations holds: exact shares, so every seed and every segment has
// the same mix.
func opCounts(mix [numKinds]int, n int) [numKinds]int {
	var counts [numKinds]int
	rest, biggest := n, 0
	for k, share := range mix {
		counts[k] = n * share / 100
		rest -= counts[k]
		if share > mix[biggest] {
			biggest = k
		}
	}
	counts[biggest] += rest
	return counts
}

// fleet is the simulated deployment: the two Lausanne bus lines served
// by `vehicles` buses sampling every sampleEvery seconds.
func fleet(seed int64, duration float64) sim.Config {
	cfg := sim.DefaultLausanne(seed)
	lines := []*geo.Polyline{cfg.Vehicles[0].Route, cfg.Vehicles[2].Route}
	rng := rand.New(rand.NewSource(seed))
	vs := make([]sim.Vehicle, vehicles)
	for i := range vs {
		line := lines[i%len(lines)]
		vs[i] = sim.Vehicle{
			Route:       line,
			SpeedMPS:    6 + 2*rng.Float64(),
			StartOffset: line.Length() * rng.Float64(),
		}
	}
	cfg.Vehicles = vs
	cfg.SamplingInterval = sampleEvery
	cfg.Duration = duration
	return cfg
}

// generate builds the dataset and the operation sequence of one run.
func generate(w *workload, seed int64, measuredOps int) (*inputs, error) {
	segLen := max(measuredOps/segments, 1)
	warm := max(segLen*segments*warmupPercent/100, 1)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))

	// Kinds first: exact counts per block. Reads are shuffled inside the
	// block; writes arrive at a steady cadence, one at a random place in
	// each of as many equal strata as the block has writes (a gateway
	// uploads periodically). The live window then fills at the same pace
	// under every seed, so what a live read costs does not depend on
	// where a shuffle happened to bunch the writes.
	kinds := make([]opKind, 0, warm+segLen*segments)
	block := func(n int) {
		counts := opCounts(w.mix, n)
		reads := make([]opKind, 0, n)
		for k, c := range counts {
			for ; opKind(k) != opIngest && c > 0; c-- {
				reads = append(reads, opKind(k))
			}
		}
		rng.Shuffle(len(reads), func(i, j int) { reads[i], reads[j] = reads[j], reads[i] })
		isWrite := make([]bool, n)
		for j, c := 0, counts[opIngest]; j < c; j++ {
			lo, hi := j*n/c, (j+1)*n/c
			isWrite[lo+rng.Intn(hi-lo)] = true
		}
		for _, wr := range isWrite {
			if wr {
				kinds = append(kinds, opIngest)
			} else {
				kinds, reads = append(kinds, reads[0]), reads[1:]
			}
		}
	}
	block(warm)
	for s := 0; s < segments; s++ {
		block(segLen)
	}
	writes := 0
	for _, k := range kinds {
		if k == opIngest {
			writes++
		}
	}

	preloadEnd := float64(w.preloadDays) * 86400
	perSecond := float64(vehicles) / sampleEvery
	streamSeconds := float64(writes*ingestTuples)/perSecond*1.1 + 2*windowSeconds
	cfg := fleet(seed, preloadEnd+streamSeconds)
	data, err := sim.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("generate dataset: %w", err)
	}
	cut := 0
	for cut < len(data) && data[cut].T < preloadEnd {
		cut++
	}
	if len(data)-cut < writes*ingestTuples {
		return nil, fmt.Errorf("dataset too short: %d stream tuples, need %d", len(data)-cut, writes*ingestTuples)
	}
	in := &inputs{
		preload: data[:cut],
		ops:     make([]op, len(kinds)),
		warmup:  warm,
		segLen:  segLen,
		stream:  data[:cut+writes*ingestTuples],
	}

	lines := []*geo.Polyline{cfg.Vehicles[0].Route, cfg.Vehicles[1].Route}
	// writeStart[k] is the time of the first tuple of the k-th write;
	// writesBefore[i] counts the writes among ops[0..i].
	writeStart := make([]float64, 0, writes)
	writesBefore := make([]int, len(kinds))
	for i, k := range kinds {
		o := &in.ops[i]
		o.kind = k
		if k == opIngest {
			lo := cut + len(writeStart)*ingestTuples
			o.tuples = data[lo : lo+ingestTuples]
			writeStart = append(writeStart, o.tuples[0].T)
			writesBefore[i] = len(writeStart)
			continue
		}
		writesBefore[i] = len(writeStart)
		o.live = rng.Intn(100) < w.livePercent
		if o.live {
			// The newest write known to be acknowledged when this read
			// is sent (see reorderWindow); before any, the last
			// preloaded tuple.
			o.t = data[cut-1].T
			if j := i - reorderWindow; j >= 0 && writesBefore[j] > 0 {
				o.t = writeStart[writesBefore[j]-1]
			}
			// Under a second later (tuples are sampleEvery apart, so the
			// same window): every read's time is then unique, which is
			// how the traced run tells operations apart.
			o.t += rng.Float64()
		} else {
			o.t = rng.Float64() * (preloadEnd - 1)
		}
		if k == opRoute {
			line := lines[rng.Intn(len(lines))]
			at := rng.Float64() * line.Length()
			o.pts = make([]wire.QueryRequest, routePoints)
			for p := range o.pts {
				pos := line.AtLoop(at + 25*float64(p))
				o.pts[p] = wire.QueryRequest{
					T: o.t, Pollutant: pollutant,
					X: pos.X + 60*(rng.Float64()-0.5),
					Y: pos.Y + 60*(rng.Float64()-0.5),
				}
			}
		}
	}
	if w.http {
		for i := range in.ops {
			if err := in.ops[i].encodeHTTP(); err != nil {
				return nil, err
			}
		}
	}
	return in, nil
}

// encodeHTTP fills the operation's HTTP path and JSON body.
func (o *op) encodeHTTP() error {
	q := url.Values{"pollutant": {pollutant.String()}}
	var body any
	switch o.kind {
	case opRoute:
		type pt struct {
			T float64 `json:"t"`
			X float64 `json:"x"`
			Y float64 `json:"y"`
		}
		pts := make([]pt, len(o.pts))
		for i, p := range o.pts {
			pts[i] = pt{p.T, p.X, p.Y}
		}
		o.path, body = "/v1/query/continuous", map[string]any{"points": pts}
	case opHeatmap:
		o.path = "/v1/heatmap"
		q.Set("t", strconv.FormatFloat(o.t, 'g', -1, 64))
		q.Set("cols", strconv.Itoa(heatmapSide))
		q.Set("rows", strconv.Itoa(heatmapSide))
	case opModel:
		o.path = "/v1/models"
		q.Set("t", strconv.FormatFloat(o.t, 'g', -1, 64))
	case opIngest:
		o.path, body = "/v1/ingest", map[string]any{"tuples": o.tuples}
	}
	o.path += "?" + q.Encode()
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("encode %s body: %w", kindNames[o.kind], err)
		}
		o.body = b
	}
	return nil
}

// hash digests the sequence: kinds, times, positions and tuples.
func (in *inputs) hash() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	f := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	f(float64(len(in.preload)))
	for i := range in.ops {
		o := &in.ops[i]
		h.Write([]byte{byte(o.kind)})
		f(o.t)
		for _, p := range o.pts {
			f(p.X)
			f(p.Y)
		}
		for _, r := range o.tuples {
			f(r.T)
			f(r.S)
		}
	}
	return h.Sum64()
}
