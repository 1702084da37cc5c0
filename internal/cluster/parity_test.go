package cluster_test

// Cluster parity, recorded: how far a sharded cluster's answers are from
// one node's over the benchmark fleet's day. It gates nothing; it is the
// baseline that placing shards by window instead of by geo-cell is to
// close.

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/geo"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/tuple"
)

// parityHours is the number of one-hour windows of the fleet's day.
const parityHours = 24

// parityFleet is the end-to-end benchmark's fleet for seed: lines 0 and 2
// of sim.DefaultLausanne(seed) served by 16 buses sampling every 30 s for
// a day (benchmark/gen.go's fleet, and TestCoverAccuracyGolden's).
func parityFleet(seed int64) sim.Config {
	const vehicles = 16
	cfg := sim.DefaultLausanne(seed)
	lines := []*geo.Polyline{cfg.Vehicles[0].Route, cfg.Vehicles[2].Route}
	rng := rand.New(rand.NewSource(seed))
	vs := make([]sim.Vehicle, vehicles)
	for i := range vs {
		line := lines[i%len(lines)]
		vs[i] = sim.Vehicle{Route: line, SpeedMPS: 6 + 2*rng.Float64(), StartOffset: line.Length() * rng.Float64()}
	}
	cfg.Vehicles = vs
	cfg.SamplingInterval = 30
	cfg.Duration = parityHours * 3600
	return cfg
}

// parityProbes are the fixed probes of window c, as the accuracy golden
// draws them: one point jittered inside each cell of a 16×16 lattice over
// the corridor region, at a time inside the window.
func parityProbes(c int) []tuple.Raw {
	const side = 16
	region := sim.LausanneRegion(100)
	rng := rand.New(rand.NewSource(int64(1000 + c)))
	dx, dy := (region.Max.X-region.Min.X)/side, (region.Max.Y-region.Min.Y)/side
	probes := make([]tuple.Raw, 0, side*side)
	for j := range side {
		for i := range side {
			probes = append(probes, tuple.Raw{
				T: (float64(c) + rng.Float64()) * 3600,
				X: region.Min.X + (float64(i)+rng.Float64())*dx,
				Y: region.Min.Y + (float64(j)+rng.Float64())*dy,
			})
		}
	}
	return probes
}

// chainCovers returns the covers a store holding ws (window c at index c)
// serves for pol — the chain covers — with nil for a window it cannot
// build one for (no tuples).
func chainCovers(t *testing.T, ws []tuple.Batch, pol tuple.Pollutant) []*core.Cover {
	t.Helper()
	st := store.MustOpenMemory(3600)
	defer st.Close()
	for _, w := range ws {
		if len(w) > 0 {
			if err := st.Append(w); err != nil {
				t.Fatal(err)
			}
		}
	}
	m := core.NewMaintainer(st, core.Config{Pollutant: pol})
	defer m.Close()
	covers := make([]*core.Cover, len(ws))
	for c, w := range ws {
		if len(w) == 0 {
			continue
		}
		cv, err := m.CoverFor(c)
		if err != nil {
			t.Fatalf("%v window %d: %v", pol, c, err)
		}
		covers[c] = cv
	}
	return covers
}

// answers pairs the estimates at a set of points with the truth there.
type answers struct{ est, truth []float64 }

func (a *answers) add(est, truth float64) {
	a.est, a.truth = append(a.est, est), append(a.truth, truth)
}

func (a answers) nrmse(t *testing.T) float64 {
	t.Helper()
	if len(a.est) == 0 {
		return math.NaN()
	}
	v, err := eval.NRMSE(a.est, a.truth)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestClusterParityRecord logs, for CO2 and PM over fleet seed 1's day,
// what a cluster answers against one node: the facade's default ring (16
// cells over the default region, cell seed 1), 3 nodes and R = 2. Each
// node's chain covers are built over its own shards' tuples, and each
// point — a tuple of the day, or a probe of the accuracy golden's grid —
// is answered by its shard owner's cover, as the router sends it there.
// Per node it logs the regions of the day and the NRMSE at the tuples and
// probes the node answers; for the cluster, the share of answers at the
// tuples that differ from one node's and the probes no cover answers.
func TestClusterParityRecord(t *testing.T) {
	const nodes = 3
	pols := []tuple.Pollutant{tuple.CO2, tuple.PM}
	// Each pollutant's day as the accuracy golden draws it.
	co2, err := sim.Generate(parityFleet(1))
	if err != nil {
		t.Fatal(err)
	}
	data, err := sim.GenerateMulti(parityFleet(1), []tuple.Pollutant{tuple.PM})
	if err != nil {
		t.Fatal(err)
	}
	data[tuple.CO2] = co2
	fields, err := sim.FieldsFor(pols)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := cluster.Cells(geo.Rect{Min: geo.Point{X: -2500, Y: -1500}, Max: geo.Point{X: 5000, Y: 4000}}, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := cluster.NewRing(cluster.Desc{Nodes: []string{"n0:1", "n1:1", "n2:1"}, Cells: cells, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range pols {
		field := fields[pol]
		whole := make([]tuple.Batch, parityHours)
		shares := make([][]tuple.Batch, nodes)
		for k := range shares {
			shares[k] = make([]tuple.Batch, parityHours)
		}
		for _, r := range data[pol] {
			c := tuple.WindowIndex(r.T, 3600)
			whole[c] = append(whole[c], r)
			k := ring.Owner(pol, r.Pos())
			shares[k][c] = append(shares[k][c], r)
		}
		one := chainCovers(t, whole, pol)
		covers := make([][]*core.Cover, nodes)
		for k := range covers {
			covers[k] = chainCovers(t, shares[k], pol)
		}
		var oneTuples, oneProbes, clusterTuples, clusterProbes answers
		nodeTuples, nodeProbes := make([]answers, nodes), make([]answers, nodes)
		regions := make([]int, nodes)
		oneRegions, differ, tuples, holes, probes := 0, 0, 0, 0, 0
		at := func(cv *core.Cover, p tuple.Raw) (float64, bool) {
			if cv == nil {
				return 0, false
			}
			v, err := cv.Interpolate(p.T, p.X, p.Y)
			return v, err == nil
		}
		for c := range parityHours {
			oneRegions += one[c].Size()
			for k := range nodes {
				if cv := covers[k][c]; cv != nil {
					regions[k] += cv.Size()
				}
			}
			for k := range nodes {
				for _, r := range shares[k][c] {
					truth := field.TrueValue(r.T, r.X, r.Y)
					want, _ := at(one[c], r)
					got, ok := at(covers[k][c], r)
					if !ok {
						t.Fatalf("%v: node %d's window %d cover does not answer its own tuple", pol, k, c)
					}
					oneTuples.add(want, truth)
					clusterTuples.add(got, truth)
					nodeTuples[k].add(got, truth)
					tuples++
					if math.Float64bits(got) != math.Float64bits(want) {
						differ++
					}
				}
			}
			for _, p := range parityProbes(c) {
				truth := field.TrueValue(p.T, p.X, p.Y)
				want, _ := at(one[c], p)
				oneProbes.add(want, truth)
				probes++
				k := ring.Owner(pol, p.Pos())
				got, ok := at(covers[k][c], p)
				if !ok {
					holes++
					continue
				}
				clusterProbes.add(got, truth)
				nodeProbes[k].add(got, truth)
			}
		}
		t.Logf("%v, one node: %d regions; NRMSE %.3f %% at the tuples, %.1f %% at the probes",
			pol, oneRegions, oneTuples.nrmse(t), oneProbes.nrmse(t))
		total := 0
		for k := range nodes {
			total += regions[k]
			t.Logf("%v, node %d: %d regions; NRMSE %.3f %% at its %d tuples, %.1f %% at its %d probes",
				pol, k, regions[k], nodeTuples[k].nrmse(t), len(nodeTuples[k].est), nodeProbes[k].nrmse(t), len(nodeProbes[k].est))
		}
		t.Logf("%v, cluster: %d regions; NRMSE %.3f %% at the tuples, %.1f %% at the probes; %.1f %% of %d answers at the tuples differ from one node's; %d of %d probes without an answer",
			pol, total, clusterTuples.nrmse(t), clusterProbes.nrmse(t), 100*float64(differ)/float64(tuples), tuples, holes, probes)
	}
}
