package repro

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

// openWithData opens an in-memory platform holding 6 hours of simulated
// deployment data with hour-long windows.
func openWithData(t *testing.T) *Platform {
	t.Helper()
	p, err := Open(Config{WindowSeconds: 3600})
	if err != nil {
		t.Fatal(err)
	}
	readings, err := SimulateLausanne(1, 6*3600)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Ingest(context.Background(), CO2, readings); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestOpenValidatesConfig(t *testing.T) {
	if _, err := Open(Config{WindowSeconds: 0}); err == nil {
		t.Error("zero window must error")
	}
}

func TestEndToEndPointQuery(t *testing.T) {
	p := openWithData(t)
	defer p.Close()
	if p.Len() < 1000 {
		t.Fatalf("Len = %d", p.Len())
	}
	v, err := p.Query(context.Background(), Request{T: 2 * 3600, X: 1200, Y: 800})
	if err != nil {
		t.Fatal(err)
	}
	if v < 300 || v > 5000 {
		t.Errorf("Query = %v, outside physical range", v)
	}
}

func TestContinuousQuery(t *testing.T) {
	p := openWithData(t)
	defer p.Close()
	qs := []Request{
		{T: 7200, X: 0, Y: 500},
		{T: 7260, X: 300, Y: 550},
		{T: 7320, X: 600, Y: 620},
	}
	vs, err := p.QueryBatch(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 3 {
		t.Fatalf("got %d values", len(vs))
	}
	if _, err := p.QueryBatch(context.Background(), nil); err == nil {
		t.Error("empty batch must error")
	}
}

func TestCoverAndModelResponse(t *testing.T) {
	p := openWithData(t)
	defer p.Close()
	cv, err := p.Cover(context.Background(), CO2, 7200)
	if err != nil {
		t.Fatal(err)
	}
	if cv.Size() == 0 || !cv.ValidAt(7200) {
		t.Errorf("cover size=%d validAt=%v", cv.Size(), cv.ValidAt(7200))
	}
	mr, err := p.ModelResponse(context.Background(), CO2, 7200)
	if err != nil {
		t.Fatal(err)
	}
	if len(mr.Centroids) != cv.Size() {
		t.Errorf("response has %d centroids, cover %d", len(mr.Centroids), cv.Size())
	}
}

func TestHeatmapFacade(t *testing.T) {
	p := openWithData(t)
	defer p.Close()
	g, err := p.Heatmap(context.Background(), CO2, 7200, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	if g.Cols != 16 || g.Rows != 16 {
		t.Errorf("grid %dx%d", g.Cols, g.Rows)
	}
}

func TestHTTPHandlerServes(t *testing.T) {
	p := openWithData(t)
	defer p.Close()
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/query?t=7200&x=1000&y=700")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var pr struct {
		Value float64 `json:"value"`
		Band  string  `json:"band"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if pr.Band == "" || math.IsNaN(pr.Value) {
		t.Errorf("response %+v", pr)
	}
}

func TestSimulateLausanneDeterministic(t *testing.T) {
	a, err := SimulateLausanne(5, 3600)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateLausanne(5, 3600)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("simulation not deterministic")
		}
	}
}

func TestClassifyCO2Facade(t *testing.T) {
	if ClassifyCO2(450).String() != "fresh" {
		t.Error("ClassifyCO2(450) should be fresh")
	}
	if ClassifyCO2(6000).String() != "hazardous" {
		t.Error("ClassifyCO2(6000) should be hazardous")
	}
}

func TestClassifyPollutantBands(t *testing.T) {
	cases := []struct {
		p    Pollutant
		v    float64
		want string
	}{
		{CO, 2, "fresh"},
		{CO, 8, "acceptable"},
		{CO, 11, "drowsy"},
		{CO, 14, "poor"},
		{CO, 30, "hazardous"},
		{PM, 20, "fresh"},
		{PM, 100, "acceptable"},
		{PM, 200, "drowsy"},
		{PM, 300, "poor"},
		{PM, 500, "hazardous"},
		{CO2, 450, "fresh"},
	}
	for _, tt := range cases {
		if got := ClassifyPollutant(tt.p, tt.v).String(); got != tt.want {
			t.Errorf("ClassifyPollutant(%v, %v) = %s, want %s", tt.p, tt.v, got, tt.want)
		}
	}
	// Unknown pollutant classifies by range fraction without panicking.
	if got := ClassifyPollutant(Pollutant(8), 0.5); got.String() == "" {
		t.Error("unknown pollutant should still classify")
	}
}

func TestLausanneProjection(t *testing.T) {
	pr := LausanneProjection()
	pt := pr.ToPoint(LatLon{Lat: 46.5197, Lon: 6.6323})
	if math.Abs(pt.X) > 1 || math.Abs(pt.Y) > 1 {
		t.Errorf("origin projects to %v, want ~(0,0)", pt)
	}
}

func TestDurableReopen(t *testing.T) {
	dir := t.TempDir()
	p, err := Open(Config{WindowSeconds: 3600, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	readings, err := SimulateLausanne(2, 3600)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Ingest(context.Background(), CO2, readings); err != nil {
		t.Fatal(err)
	}
	n := p.Len()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p2, err := Open(Config{WindowSeconds: 3600, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if p2.Len() != n {
		t.Errorf("recovered %d readings, want %d", p2.Len(), n)
	}
	if _, err := p2.Query(context.Background(), Request{T: 1800, X: 500, Y: 500}); err != nil {
		t.Errorf("query after recovery: %v", err)
	}
}

func TestDurableLayoutPerPollutant(t *testing.T) {
	// An explicit Pollutants list — even of one — persists into
	// Dir/<pollutant>, and a reopen recovers from there.
	dir := t.TempDir()
	cfg := Config{WindowSeconds: 3600, Dir: dir, Pollutants: []Pollutant{CO2}}
	p, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	readings, err := SimulateLausanne(3, 3600)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Ingest(context.Background(), CO2, readings); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "CO2"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("expected segments under %s/CO2: err=%v entries=%d", dir, err, len(entries))
	}
	p2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if got := p2.Len(); got != len(readings) {
		t.Errorf("recovered %d readings, want %d", got, len(readings))
	}
}
