package repro

// Restart equivalence: a platform closed and reopened over the same
// durable directory must answer queries and heatmaps identically to the
// pre-restart instance, under every sync policy, with and without
// checkpoints, and its /v1/stats counters must reset sanely (data
// counters preserved, pipeline counters zeroed, recovery reported).

import (
	"context"
	"encoding/json"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// restartProbe captures the externally observable answers of a
// platform: point queries across several windows and a heatmap raster.
type restartProbe struct {
	values []float64
	errs   []bool
	grid   []float64
}

func probePlatform(t *testing.T, p *Platform) restartProbe {
	t.Helper()
	ctx := context.Background()
	var pr restartProbe
	for _, pol := range []Pollutant{CO2, CO} {
		for _, tm := range []float64{1800, 5400, 9000} {
			for _, xy := range [][2]float64{{200, 300}, {900, 1100}} {
				v, err := p.Query(ctx, Request{T: tm, X: xy[0], Y: xy[1], Pollutant: pol})
				pr.values = append(pr.values, v)
				pr.errs = append(pr.errs, err != nil)
			}
		}
	}
	g, err := p.Heatmap(ctx, CO2, 5400, 16, 16)
	if err == nil {
		pr.grid = g.Values
	}
	return pr
}

func (pr restartProbe) equal(other restartProbe) bool {
	if len(pr.values) != len(other.values) || len(pr.grid) != len(other.grid) {
		return false
	}
	for i := range pr.values {
		if pr.errs[i] != other.errs[i] || pr.values[i] != other.values[i] {
			return false
		}
	}
	for i := range pr.grid {
		if pr.grid[i] != other.grid[i] {
			return false
		}
	}
	return true
}

type statsProbe struct {
	Tuples  int `json:"tuples"`
	Windows int `json:"windows"`
	Ingest  struct {
		Submitted int64 `json:"submitted"`
		Tuples    int64 `json:"tuples"`
	} `json:"ingest"`
	Checkpoint struct {
		Checkpoints     int64 `json:"checkpoints"`
		RecoveredShards int   `json:"recoveredShards"`
	} `json:"checkpoint"`
}

func fetchStats(t *testing.T, p *Platform) statsProbe {
	t.Helper()
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sp statsProbe
	if err := json.NewDecoder(resp.Body).Decode(&sp); err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestRestartEquivalence(t *testing.T) {
	cases := []struct {
		name       string
		sync       SyncPolicy
		checkpoint CheckpointConfig
	}{
		{"every-batch", SyncEveryBatch(), CheckpointConfig{}},
		{"never", SyncNever(), CheckpointConfig{}},
		{"every-batch-checkpointed", SyncEveryBatch(), CheckpointConfig{Interval: time.Hour}},
		{"never-checkpointed-keep", SyncNever(), CheckpointConfig{Interval: time.Hour, KeepSegments: 2}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			cfg := Config{
				WindowSeconds: 3600,
				Pollutants:    []Pollutant{CO2, CO},
				Dir:           dir,
				Sync:          tc.sync,
				Checkpoint:    tc.checkpoint,
				Retain:        4,
			}
			p, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			readings, err := SimulateLausanne(7, 3*3600)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			for _, pol := range []Pollutant{CO2, CO} {
				if err := p.Ingest(ctx, pol, readings); err != nil {
					t.Fatal(err)
				}
			}
			p.WaitMaintenance()
			before := probePlatform(t, p)
			beforeStats := fetchStats(t, p)
			if beforeStats.Ingest.Submitted == 0 {
				t.Fatal("pre-restart stats recorded no ingest")
			}
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}

			p2, err := Open(cfg)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer p2.Close()
			p2.WaitMaintenance()
			after := probePlatform(t, p2)
			if !after.equal(before) {
				t.Errorf("restart changed answers:\n before %v\n after  %v", before.values, after.values)
			}
			afterStats := fetchStats(t, p2)
			if afterStats.Tuples != beforeStats.Tuples || afterStats.Windows != beforeStats.Windows {
				t.Errorf("data counters drifted across restart: %+v vs %+v", afterStats, beforeStats)
			}
			if afterStats.Ingest.Submitted != 0 || afterStats.Ingest.Tuples != 0 {
				t.Errorf("pipeline counters not reset: %+v", afterStats.Ingest)
			}
			if tc.checkpoint.Interval > 0 {
				// Close checkpointed; the reopen must have recovered both
				// shards from those checkpoints.
				if afterStats.Checkpoint.RecoveredShards != 2 {
					t.Errorf("RecoveredShards = %d, want 2", afterStats.Checkpoint.RecoveredShards)
				}
			} else if afterStats.Checkpoint.RecoveredShards != 0 {
				t.Errorf("recovered from a checkpoint that was never taken: %+v", afterStats.Checkpoint)
			}
		})
	}
}

// TestPlatformManualCheckpoint exercises the facade-level trigger: a
// checkpoint mid-flight persists the raw windows, a crash (no Close)
// after it still recovers everything acknowledged, and a window that
// took more tuples between the checkpoint and the crash is answered
// from the cover of everything it holds — the pre-crash answer, which is
// also a from-scratch build of the recovered window — not from a cover
// as old as the checkpoint.
func TestPlatformManualCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		WindowSeconds: 3600,
		Pollutants:    []Pollutant{CO2},
		Dir:           dir,
	}
	p, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	readings, err := SimulateLausanne(11, 2*3600)
	if err != nil {
		t.Fatal(err)
	}
	// The second half-hour of window 0 arrives after the checkpoint, its
	// values shifted so a cover that misses it answers visibly wrong.
	var first, late []Reading
	for _, r := range readings {
		if r.T >= 1800 && r.T < 3600 {
			r.S += 300
			late = append(late, r)
		} else {
			first = append(first, r)
		}
	}
	ctx := context.Background()
	if err := p.Ingest(ctx, CO2, first); err != nil {
		t.Fatal(err)
	}
	p.WaitMaintenance()
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	cs := p.CheckpointStats()
	if cs.Checkpoints != 1 {
		t.Fatalf("CheckpointStats = %+v, want 1 checkpoint", cs)
	}
	req := Request{T: 1800, X: 500, Y: 500}
	atCheckpoint, err := p.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Ingest(ctx, CO2, late); err != nil {
		t.Fatal(err)
	}
	p.WaitMaintenance()
	want, err := p.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if want == atCheckpoint {
		t.Fatalf("the late slice did not move the answer (%v); the test would prove nothing", want)
	}
	// No Close: simulate a crash by abandoning the platform and opening
	// the directory fresh.
	p2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if got := p2.CheckpointStats(); got.RecoveredShards != 1 {
		t.Fatalf("RecoveredShards = %d, want 1 (stats: %+v)", got.RecoveredShards, got)
	}
	if got := p2.Len(); got != len(readings) {
		t.Fatalf("recovered %d tuples, want %d", got, len(readings))
	}
	p2.WaitMaintenance()
	got, err := p2.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("post-crash answer %v, want %v (at the checkpoint: %v)", got, want, atCheckpoint)
	}
	cv, err := core.BuildCover(p2.stores[CO2].Window(0), 0, cfg.WindowSeconds, AdKMNConfig{Pollutant: CO2})
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := cv.Interpolate(req.T, req.X, req.Y)
	if err != nil {
		t.Fatal(err)
	}
	if got != scratch {
		t.Errorf("post-crash answer %v, from-scratch cover of the recovered window answers %v", got, scratch)
	}
}

// TestCloseCheckpointKeepsSeeds: the checkpoint Close takes (with a
// Checkpoint.Interval set) runs while the cover maintainers still give
// their seeds, and brings every window behind the newest one up to date
// first — even one written just before Close, whose rebuild is still
// queued — so the reopen refits all of them and runs Ad-KMN at most for
// the newest window.
func TestCloseCheckpointKeepsSeeds(t *testing.T) {
	cfg := Config{
		WindowSeconds: 3600,
		Pollutants:    []Pollutant{CO2},
		Dir:           t.TempDir(),
		Checkpoint:    CheckpointConfig{Interval: time.Hour},
	}
	p, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	readings, err := SimulateLausanne(5, 4*3600)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Ingest(context.Background(), CO2, readings); err != nil {
		t.Fatal(err)
	}
	windows := int64(len(p.stores[CO2].WindowIndexes()))
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p, err = Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer p.Close()
	p.WaitMaintenance()
	if ms := p.MaintenanceStats(); ms.Built != windows || ms.Refitted < windows-1 || ms.Failed != 0 {
		t.Errorf("reopen built %d of %d windows, refitted %d (%d failed); want at least %d refitted",
			ms.Built, windows, ms.Refitted, ms.Failed, windows-1)
	}
}

// TestContinuousETagAcrossRestart: a continuous-query ETag minted before
// a restart must not match after it once the window's data has changed.
// Served cover generations restart with the process, so the tag for the
// reopened window's rebuilt cover would otherwise repeat the old one and
// a poll holding it would get a 304 for an answer it never saw.
func TestContinuousETagAcrossRestart(t *testing.T) {
	cfg := Config{WindowSeconds: 3600, Pollutants: []Pollutant{CO2}, Dir: t.TempDir()}
	window0 := func(seed uint64, base float64) []Reading {
		rng := rand.New(rand.NewPCG(seed, 1))
		out := make([]Reading, 400)
		for i := range out {
			x, y := rng.Float64()*2000, rng.Float64()*2000
			out[i] = Reading{T: float64(i) * 9, X: x, Y: y, S: base + x/40 + rng.Float64()*10}
		}
		return out
	}
	poll := func(p *Platform, ifNoneMatch string) (int, string, string) {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, "/v1/query/continuous",
			strings.NewReader(`{"points":[{"t":300,"x":500,"y":500},{"t":900,"x":1500,"y":1200}]}`))
		if ifNoneMatch != "" {
			req.Header.Set("If-None-Match", ifNoneMatch)
		}
		w := httptest.NewRecorder()
		p.Handler().ServeHTTP(w, req)
		return w.Code, w.Header().Get("ETag"), w.Body.String()
	}
	ingest := func(p *Platform, readings []Reading) {
		t.Helper()
		if err := p.Ingest(context.Background(), CO2, readings); err != nil {
			t.Fatal(err)
		}
		p.WaitMaintenance()
	}

	p, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingest(p, window0(1, 400))
	code, etag, before := poll(p, "")
	if code != http.StatusOK || etag == "" {
		t.Fatalf("first poll: %d, ETag %q: %s", code, etag, before)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p, err = Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ingest(p, window0(2, 430))
	_, _, after := poll(p, "")
	if after == before {
		t.Fatalf("the second upload left the answer unchanged: %s", after)
	}
	if code, _, body := poll(p, etag); code != http.StatusOK {
		t.Fatalf("poll with the pre-restart ETag %s answered %d, want 200 (the answer is now %s, the tag was minted for %s)",
			etag, code, after, before)
	} else if body != after {
		t.Errorf("conditional poll answered %s, unconditional %s", body, after)
	}
}
