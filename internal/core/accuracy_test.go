package core

// Accuracy as a test: the covers a store serves over the benchmark
// fleet's day — chain covers, each window's started from its
// predecessor's — for CO2 and for PM, measured against the simulator's
// ground truth and held to a recorded golden. A change to Ad-KMN may move covers, but it may not
// make them less accurate than the seed-to-seed spread of the fleet, and
// it may not spend more regions or leave more regions above τn. Each
// window also records, without gating on them, the sensor noise the
// window shows (σ̂ and the noise floor it puts under ApproxError), how
// many regions exceed that floor as well as τn, how many probes and
// heatmap pixels lie off every region's support, and how the probe NRMSE
// splits between probes near the tuples and far from them. It also logs
// how much the fit depends on rounding: the largest |coefficient| of the
// day's covers, and the NRMSE of covers rebuilt over the windows with X,
// Y and S rounded to a 1e-8 step; and how much the covers depend on the
// order the tuples arrived in: how many covers, and how many probe
// answers, change when each window is shuffled with a fixed seed. And it
// logs how a write-time score would read: each window's cover built over
// its first 80 % of tuples by time, scored at the last 20 % against what
// the sensors read there, raw and denoised by σ̂, beside the true error
// at those tuples and at the probes.
//
// Re-record (and re-measure the spread over fleet seeds 1–5) with
//
//	go test -run TestCoverAccuracyGolden -update-accuracy ./internal/core

import (
	"encoding/json"
	"flag"
	"math"
	"math/rand"
	"os"
	"slices"
	"testing"

	"repro/internal/eval"
	"repro/internal/geo"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/tuple"
)

var updateAccuracy = flag.Bool("update-accuracy", false, "re-record testdata/accuracy.golden.json")

const accuracyGolden = "testdata/accuracy.golden.json"

// accuracyPollutants are the pollutants the golden measures: the fleet's
// CO2 (lausanneWindows) and PM on the same trajectories.
var accuracyPollutants = []tuple.Pollutant{tuple.CO2, tuple.PM}

// windowAccuracy is one window's cover measured against the truth.
type windowAccuracy struct {
	// NRMSETuples and NRMSEProbes are eval.NRMSE (percent) of the cover's
	// answers at the window's tuples and at the probe grid.
	NRMSETuples float64 `json:"nrmse_tuples_pct"`
	NRMSEProbes float64 `json:"nrmse_probes_pct"`
	Regions     int     `json:"regions"`
	// WorstError and MeanError are the largest and the tuple-weighted
	// mean of the cover's ApproxErrors.
	WorstError float64 `json:"worst_approx_error"`
	MeanError  float64 `json:"mean_approx_error"`
	// AboveTau counts the regions whose ApproxError exceeds τn.
	AboveTau int `json:"regions_above_tau"`

	// The columns below report; none is held to the golden.

	// SigmaHat is σ̂, the sensor noise the window shows: the median |Δs|
	// between each tuple and its nearest neighbour within 30 m and 90 s,
	// ÷ (0.6745·√2).
	SigmaHat float64 `json:"sigma_hat"`
	// NoiseFloor is the ApproxError a model reads on noise alone:
	// 0.80 σ̂ ÷ the window's value span (ApproxError's normalization).
	NoiseFloor float64 `json:"noise_floor"`
	// AboveFloor counts the regions whose ApproxError exceeds
	// max(τn, NoiseFloor).
	AboveFloor int `json:"regions_above_floor"`
	// ProbesOffSupport and RasterOffSupport are the shares (percent) of
	// the probe grid, and of a 64×64 raster over the window's bounds,
	// lying outside the support disc of the region answering them: the
	// disc around its centroid out to its farthest tuple.
	ProbesOffSupport float64 `json:"probes_off_support_pct"`
	RasterOffSupport float64 `json:"raster_off_support_pct"`
	// NRMSEProbesNear and NRMSEProbesFar split NRMSEProbes between the
	// probes within 300 m of the window's nearest tuple and those beyond
	// (0 when a side has no probe).
	NRMSEProbesNear float64 `json:"nrmse_probes_near_pct"`
	NRMSEProbesFar  float64 `json:"nrmse_probes_far_pct"`
}

// pollutantAccuracy is one pollutant's day: its windows, their totals,
// and the spread of the mean NRMSEs across fleet seeds 1–5.
type pollutantAccuracy struct {
	Pollutant        string           `json:"pollutant"`
	MeanNRMSETuples  float64          `json:"mean_nrmse_tuples_pct"`
	MeanNRMSEProbes  float64          `json:"mean_nrmse_probes_pct"`
	Regions          int              `json:"regions"`
	RegionsAboveTau  int              `json:"regions_above_tau"`
	WindowsAboveTau  int              `json:"windows_above_tau"`
	SeedSpreadTuples float64          `json:"seed_spread_nrmse_tuples_pct"`
	SeedSpreadProbes float64          `json:"seed_spread_nrmse_probes_pct"`
	Windows          []windowAccuracy `json:"windows"`

	// MaxCoef is the largest |coefficient| over the day's covers
	// (logged, not recorded).
	MaxCoef float64 `json:"-"`
}

// accuracyWindows returns the fleet's day for pol and fleet seed, and the
// truth it samples.
func accuracyWindows(t *testing.T, pol tuple.Pollutant, seed int64) ([]tuple.Batch, sim.Field) {
	t.Helper()
	fields, err := sim.FieldsFor([]tuple.Pollutant{pol})
	if err != nil {
		t.Fatal(err)
	}
	if pol == tuple.CO2 && seed == 1 {
		return lausanneWindows(), fields[pol]
	}
	data, err := sim.GenerateMulti(lausanneFleet(seed), []tuple.Pollutant{pol})
	if err != nil {
		t.Fatal(err)
	}
	return hourWindows(data[pol]), fields[pol]
}

// probeGrid returns the fixed probes of window c: one point jittered
// inside each cell of a 16×16 lattice over the corridor region, at a
// time drawn inside the window, all from one seeded source.
func probeGrid(c int) []tuple.Raw {
	const side = 16
	region := sim.LausanneRegion(100)
	rng := rand.New(rand.NewSource(int64(1000 + c)))
	dx := (region.Max.X - region.Min.X) / side
	dy := (region.Max.Y - region.Min.Y) / side
	probes := make([]tuple.Raw, 0, side*side)
	for j := 0; j < side; j++ {
		for i := 0; i < side; i++ {
			probes = append(probes, tuple.Raw{
				T: (float64(c) + rng.Float64()) * 3600,
				X: region.Min.X + (float64(i)+rng.Float64())*dx,
				Y: region.Min.Y + (float64(j)+rng.Float64())*dy,
			})
		}
	}
	return probes
}

// coverNRMSE is eval.NRMSE of cv's answers at pts against the truth.
func coverNRMSE(t *testing.T, cv *Cover, field sim.Field, pts []tuple.Raw) float64 {
	t.Helper()
	est := make([]float64, len(pts))
	truth := make([]float64, len(pts))
	for i, p := range pts {
		v, err := cv.Interpolate(p.T, p.X, p.Y)
		if err != nil {
			t.Fatal(err)
		}
		est[i], truth[i] = v, field.TrueValue(p.T, p.X, p.Y)
	}
	nrmse, err := eval.NRMSE(est, truth)
	if err != nil {
		t.Fatal(err)
	}
	return nrmse
}

// sigmaHat is σ̂ of window w: the median |Δs| between each tuple and its
// spatially nearest neighbour within 30 m and 90 s, ÷ (0.6745·√2); 0 when
// no tuple has such a neighbour.
func sigmaHat(w tuple.Batch) float64 {
	const maxDist, maxDT = 30.0, 90.0
	sorted := slices.Clone(w)
	sorted.SortByTime()
	var diffs []float64
	for i, a := range sorted {
		best, bestD := -1, maxDist*maxDist
		for _, dir := range []int{-1, 1} {
			for j := i + dir; j >= 0 && j < len(sorted) && math.Abs(sorted[j].T-a.T) <= maxDT; j += dir {
				if d := a.Pos().Dist2(sorted[j].Pos()); d <= bestD {
					best, bestD = j, d
				}
			}
		}
		if best >= 0 {
			diffs = append(diffs, math.Abs(a.S-sorted[best].S))
		}
	}
	if len(diffs) == 0 {
		return 0
	}
	slices.Sort(diffs)
	median := diffs[len(diffs)/2]
	if len(diffs)%2 == 0 {
		median = (diffs[len(diffs)/2-1] + median) / 2
	}
	return median / (0.6745 * math.Sqrt2)
}

// offSupport returns the share (percent) of pts outside the support disc
// of the region of cv answering them, the regions' discs reaching out to
// their farthest tuple of w (the tuples each region answers).
func offSupport(cv *Cover, w tuple.Batch, pts []geo.Point) float64 {
	reach := make([]float64, cv.Size())
	for _, tp := range w {
		j := cv.NearestRegion(tp.Pos())
		reach[j] = max(reach[j], cv.Centroids[j].Dist(tp.Pos()))
	}
	off := 0
	for _, p := range pts {
		if j := cv.NearestRegion(p); cv.Centroids[j].Dist(p) > reach[j] {
			off++
		}
	}
	return 100 * float64(off) / float64(len(pts))
}

// rasterOver returns the centres of a side×side raster over r.
func rasterOver(r geo.Rect, side int) []geo.Point {
	dx, dy := (r.Max.X-r.Min.X)/float64(side), (r.Max.Y-r.Min.Y)/float64(side)
	pts := make([]geo.Point, 0, side*side)
	for j := range side {
		for i := range side {
			pts = append(pts, geo.Point{X: r.Min.X + (float64(i)+0.5)*dx, Y: r.Min.Y + (float64(j)+0.5)*dy})
		}
	}
	return pts
}

// splitNRMSE is coverNRMSE over the probes within near of w's nearest
// tuple and over those beyond it, 0 for a side with no probe.
func splitNRMSE(t *testing.T, cv *Cover, field sim.Field, w, probes tuple.Batch, near float64) (nearPct, farPct float64) {
	t.Helper()
	var in, out tuple.Batch
	for _, p := range probes {
		d := math.Inf(1)
		for _, tp := range w {
			d = min(d, p.Pos().Dist(tp.Pos()))
		}
		if d <= near {
			in = append(in, p)
		} else {
			out = append(out, p)
		}
	}
	if len(in) > 0 {
		nearPct = coverNRMSE(t, cv, field, in)
	}
	if len(out) > 0 {
		farPct = coverNRMSE(t, cv, field, out)
	}
	return nearPct, farPct
}

// servedCovers returns the covers a store holding windows ws (window c
// at index c) serves under a maintainer with cfg: the chain covers.
func servedCovers(t *testing.T, ws []tuple.Batch, cfg Config) []*Cover {
	t.Helper()
	st := store.MustOpenMemory(3600)
	defer st.Close()
	for _, w := range ws {
		if err := st.Append(w); err != nil {
			t.Fatal(err)
		}
	}
	m := NewMaintainer(st, cfg)
	defer m.Close()
	covers := make([]*Cover, len(ws))
	for c := range ws {
		cv, err := m.CoverFor(c)
		if err != nil {
			t.Fatalf("%v window %d: %v", cfg.Pollutant, c, err)
		}
		covers[c] = cv
	}
	return covers
}

// roundedWindows returns ws with every tuple's X, Y and S rounded to a
// multiple of step.
func roundedWindows(ws []tuple.Batch, step float64) []tuple.Batch {
	out := make([]tuple.Batch, len(ws))
	for c, w := range ws {
		out[c] = w.Clone()
		for i := range out[c] {
			r := &out[c][i]
			r.X, r.Y, r.S = math.Round(r.X/step)*step, math.Round(r.Y/step)*step, math.Round(r.S/step)*step
		}
	}
	return out
}

// shuffledWindows returns ws with each window's tuples reordered by one
// source seeded with seed.
func shuffledWindows(ws []tuple.Batch, seed int64) []tuple.Batch {
	rng := rand.New(rand.NewSource(seed))
	out := make([]tuple.Batch, len(ws))
	for c, w := range ws {
		out[c] = w.Clone()
		rng.Shuffle(len(w), func(i, j int) { out[c][i], out[c][j] = out[c][j], out[c][i] })
	}
	return out
}

// sameCover reports whether a and b are the same model bit for bit.
func sameCover(a, b *Cover) bool {
	bits := func(cv *Cover) []uint64 {
		out := []uint64{math.Float64bits(cv.ValueLo), math.Float64bits(cv.ValueHi)}
		for _, p := range cv.Centroids {
			out = append(out, math.Float64bits(p.X), math.Float64bits(p.Y))
		}
		for _, v := range slices.Concat(cv.Coefs, cv.ApproxErrors) {
			out = append(out, math.Float64bits(v))
		}
		return out
	}
	return slices.Equal(bits(a), bits(b)) && slices.Equal(a.N, b.N)
}

// orderDependence builds pol's served covers over fleet seed 1's windows
// and over the same windows shuffled with seed 1, and counts the covers
// that differ, the probe answers that differ, and the probes.
func orderDependence(t *testing.T, pol tuple.Pollutant) (covers, answers, probes int) {
	t.Helper()
	ws, _ := accuracyWindows(t, pol, 1)
	cfg := Config{Pollutant: pol}
	asIs, shuffled := servedCovers(t, ws, cfg), servedCovers(t, shuffledWindows(ws, 1), cfg)
	for c := range ws {
		if !sameCover(asIs[c], shuffled[c]) {
			covers++
		}
		for _, p := range probeGrid(c) {
			a, errA := asIs[c].Interpolate(p.T, p.X, p.Y)
			b, errB := shuffled[c].Interpolate(p.T, p.X, p.Y)
			if errA != nil || errB != nil {
				t.Fatalf("%v window %d probe: %v, %v", pol, c, errA, errB)
			}
			if math.Float64bits(a) != math.Float64bits(b) {
				answers++
			}
			probes++
		}
	}
	return covers, answers, probes
}

// measureAccuracy measures, against the truth at each window's tuples and
// probes, the covers a store serves for pol and fleet seed — built over
// the windows rounded to a multiple of step when step > 0.
func measureAccuracy(t *testing.T, pol tuple.Pollutant, seed int64, step float64) pollutantAccuracy {
	t.Helper()
	ws, field := accuracyWindows(t, pol, seed)
	cfg := Config{Pollutant: pol}
	tau := cfg.withDefaults().ErrThreshold
	acc := pollutantAccuracy{Pollutant: pol.String()}
	built := ws
	if step > 0 {
		built = roundedWindows(ws, step)
	}
	covers := servedCovers(t, built, cfg)
	for c, w := range ws {
		cv := covers[c]
		for _, v := range cv.Coefs {
			acc.MaxCoef = max(acc.MaxCoef, math.Abs(v))
		}
		probes := probeGrid(c)
		wa := windowAccuracy{
			NRMSETuples: coverNRMSE(t, cv, field, w),
			NRMSEProbes: coverNRMSE(t, cv, field, probes),
			Regions:     cv.Size(),
			WorstError:  cv.MaxApproxError(),
			MeanError:   cv.MeanApproxError(),
			SigmaHat:    sigmaHat(w),
		}
		wa.NoiseFloor = 0.80 * wa.SigmaHat / normalSpanFor(w, cfg)
		for _, e := range cv.ApproxErrors {
			if e > tau {
				wa.AboveTau++
			}
			if e > max(tau, wa.NoiseFloor) {
				wa.AboveFloor++
			}
		}
		probePts := make([]geo.Point, len(probes))
		for i, p := range probes {
			probePts[i] = p.Pos()
		}
		wa.ProbesOffSupport = offSupport(cv, w, probePts)
		bounds, _ := w.Bounds()
		wa.RasterOffSupport = offSupport(cv, w, rasterOver(bounds, 64))
		wa.NRMSEProbesNear, wa.NRMSEProbesFar = splitNRMSE(t, cv, field, w, probes, 300)
		acc.Windows = append(acc.Windows, wa)
		acc.MeanNRMSETuples += wa.NRMSETuples / float64(len(ws))
		acc.MeanNRMSEProbes += wa.NRMSEProbes / float64(len(ws))
		acc.Regions += wa.Regions
		acc.RegionsAboveTau += wa.AboveTau
		if wa.AboveTau > 0 {
			acc.WindowsAboveTau++
		}
	}
	return acc
}

// heldOutScore is one window's write-time score: a cover built over the
// window's first 80 % of tuples by time, scored at the last 20 %.
type heldOutScore struct {
	// Raw is the RMSE of the cover's answers against the sensor readings
	// at the held-out tuples, and Denoised is √max(Raw² − σ̂², 0), with σ̂
	// the window's sensor noise.
	Raw, Denoised float64
	// TrueTuples and TrueProbes are the RMSE of the same cover against
	// the truth at the held-out tuples and at the window's probes.
	TrueTuples, TrueProbes float64
}

// writeTimeScores scores, per window of pol's fleet seed 1, a cover built
// over the window's first 80 % of tuples by time at its last 20 %.
func writeTimeScores(t *testing.T, pol tuple.Pollutant) []heldOutScore {
	t.Helper()
	ws, field := accuracyWindows(t, pol, 1)
	cfg := Config{Pollutant: pol}
	scores := make([]heldOutScore, len(ws))
	for c, w := range ws {
		sorted := w.Clone()
		sorted.SortByTime()
		cut := len(sorted) * 8 / 10
		head, tail := sorted[:cut], sorted[cut:]
		cv, err := BuildCover(head.Clone(), c, 3600, cfg)
		if err != nil {
			t.Fatalf("%v window %d: %v", pol, c, err)
		}
		answer := func(pts tuple.Batch) (est, truth []float64) {
			for _, p := range pts {
				v, err := cv.Interpolate(p.T, p.X, p.Y)
				if err != nil {
					t.Fatal(err)
				}
				est, truth = append(est, v), append(truth, field.TrueValue(p.T, p.X, p.Y))
			}
			return est, truth
		}
		rmse := func(est, ref []float64) float64 {
			v, err := eval.RMSE(est, ref)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
		est, truth := answer(tail)
		sensed := make([]float64, len(tail))
		for i, p := range tail {
			sensed[i] = p.S
		}
		sc := heldOutScore{Raw: rmse(est, sensed), TrueTuples: rmse(est, truth)}
		sigma := sigmaHat(w)
		sc.Denoised = math.Sqrt(max(sc.Raw*sc.Raw-sigma*sigma, 0))
		sc.TrueProbes = rmse(answer(probeGrid(c)))
		scores[c] = sc
	}
	return scores
}

// pearson is the correlation coefficient of xs and ys (0 when either is
// constant).
func pearson(xs, ys []float64) float64 {
	var mx, my float64
	for i := range xs {
		mx, my = mx+xs[i], my+ys[i]
	}
	mx, my = mx/float64(len(xs)), my/float64(len(ys))
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy, sxx, syy = sxy+dx*dy, sxx+dx*dx, syy+dy*dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// logWriteTimeScores logs pol's write-time scores per window and for the
// day: the means, how well the denoised score tracks the true error at
// the held-out tuples and at the probes, and how many windows floor at 0.
func logWriteTimeScores(t *testing.T, pol tuple.Pollutant) {
	t.Helper()
	scores := writeTimeScores(t, pol)
	var raw, denoised, trueTuples, trueProbes []float64
	floored := 0
	for c, sc := range scores {
		t.Logf("%v window %d (reported): write-time score %.3f raw, %.3f denoised; true RMSE %.3f at the held-out tuples, %.3f at the probes",
			pol, c, sc.Raw, sc.Denoised, sc.TrueTuples, sc.TrueProbes)
		raw, denoised = append(raw, sc.Raw), append(denoised, sc.Denoised)
		trueTuples, trueProbes = append(trueTuples, sc.TrueTuples), append(trueProbes, sc.TrueProbes)
		if sc.Denoised == 0 {
			floored++
		}
	}
	mean := func(xs []float64) float64 {
		sum := 0.0
		for _, x := range xs {
			sum += x
		}
		return sum / float64(len(xs))
	}
	t.Logf("%v (reported): write-time score (cover over each window's first 80 %% of tuples, at the last 20 %%) mean %.3f raw, %.3f denoised (%d of %d windows floor at 0); true RMSE %.3f at the held-out tuples (r %.2f), %.3f at the probes (r %.2f)",
		pol, mean(raw), mean(denoised), floored, len(scores), mean(trueTuples), pearson(denoised, trueTuples), mean(trueProbes), pearson(denoised, trueProbes))
}

// spread returns max − min of xs.
func spread(xs []float64) float64 { return slices.Max(xs) - slices.Min(xs) }

// TestCoverAccuracyGolden holds the fleet's covers to the golden: each
// pollutant's mean NRMSE, at the tuples and at the probes, may exceed the
// recorded one by at most the recorded spread across fleet seeds 1–5, and
// neither the day's region count nor its count of regions above τn may
// rise.
func TestCoverAccuracyGolden(t *testing.T) {
	var got []pollutantAccuracy
	for _, pol := range accuracyPollutants {
		got = append(got, measureAccuracy(t, pol, 1, 0))
	}
	if *updateAccuracy {
		for i, pol := range accuracyPollutants {
			var tuples, probes []float64
			for seed := int64(1); seed <= 5; seed++ {
				acc := got[i]
				if seed > 1 {
					acc = measureAccuracy(t, pol, seed, 0)
				}
				tuples = append(tuples, acc.MeanNRMSETuples)
				probes = append(probes, acc.MeanNRMSEProbes)
			}
			got[i].SeedSpreadTuples, got[i].SeedSpreadProbes = spread(tuples), spread(probes)
		}
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(accuracyGolden, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(accuracyGolden)
	if err != nil {
		t.Fatal(err)
	}
	var want []pollutantAccuracy
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden holds %d pollutants, the test measures %d", len(want), len(got))
	}
	for i, g := range got {
		w := want[i]
		if g.Pollutant != w.Pollutant || len(g.Windows) != len(w.Windows) {
			t.Fatalf("measured %s over %d windows, golden holds %s over %d", g.Pollutant, len(g.Windows), w.Pollutant, len(w.Windows))
		}
		t.Logf("%s: mean NRMSE %.4f %% at the tuples (golden %.4f ± %.4f), %.4f %% at the probes (golden %.4f ± %.4f); %d regions (golden %d), %d above τn in %d windows (golden %d in %d)",
			g.Pollutant, g.MeanNRMSETuples, w.MeanNRMSETuples, w.SeedSpreadTuples, g.MeanNRMSEProbes, w.MeanNRMSEProbes, w.SeedSpreadProbes,
			g.Regions, w.Regions, g.RegionsAboveTau, g.WindowsAboveTau, w.RegionsAboveTau, w.WindowsAboveTau)
		var sigma, floor, offProbes, offRaster float64
		aboveFloor := 0
		for _, wa := range g.Windows {
			n := float64(len(g.Windows))
			sigma, floor = sigma+wa.SigmaHat/n, floor+wa.NoiseFloor/n
			offProbes, offRaster = offProbes+wa.ProbesOffSupport/n, offRaster+wa.RasterOffSupport/n
			aboveFloor += wa.AboveFloor
		}
		t.Logf("%s (reported): mean σ̂ %.3f, mean noise floor %.4f, %d regions above max(τn, floor); %.1f %% of probes and %.1f %% of raster pixels off support",
			g.Pollutant, sigma, floor, aboveFloor, offProbes, offRaster)
		rounded := measureAccuracy(t, accuracyPollutants[i], 1, 1e-8)
		t.Logf("%s (reported): largest |coefficient| %.3g; over the windows rounded to 1e-8, mean NRMSE %.4f %% at the tuples, %.4f %% at the probes (largest |coefficient| %.3g)",
			g.Pollutant, g.MaxCoef, rounded.MeanNRMSETuples, rounded.MeanNRMSEProbes, rounded.MaxCoef)
		covers, answers, probes := orderDependence(t, accuracyPollutants[i])
		t.Logf("%s (reported): with each window shuffled (seed 1), %d of %d covers and %d of %d probe answers change",
			g.Pollutant, covers, len(g.Windows), answers, probes)
		logWriteTimeScores(t, accuracyPollutants[i])
		if math.IsNaN(g.MeanNRMSETuples) || math.IsNaN(g.MeanNRMSEProbes) {
			t.Fatalf("%s: NaN accuracy", g.Pollutant)
		}
		if g.MeanNRMSETuples > w.MeanNRMSETuples+w.SeedSpreadTuples {
			t.Errorf("%s: mean NRMSE at the tuples rose to %.4f %%, bound %.4f + %.4f", g.Pollutant, g.MeanNRMSETuples, w.MeanNRMSETuples, w.SeedSpreadTuples)
		}
		if g.MeanNRMSEProbes > w.MeanNRMSEProbes+w.SeedSpreadProbes {
			t.Errorf("%s: mean NRMSE at the probes rose to %.4f %%, bound %.4f + %.4f", g.Pollutant, g.MeanNRMSEProbes, w.MeanNRMSEProbes, w.SeedSpreadProbes)
		}
		if g.Regions > w.Regions {
			t.Errorf("%s: the day's covers use %d regions, golden %d", g.Pollutant, g.Regions, w.Regions)
		}
		if g.RegionsAboveTau > w.RegionsAboveTau {
			t.Errorf("%s: %d regions above τn, golden %d", g.Pollutant, g.RegionsAboveTau, w.RegionsAboveTau)
		}
	}
}
