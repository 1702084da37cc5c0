package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/kmeans"
	"repro/internal/store"
	"repro/internal/tuple"
)

// routeSummaryEngine serves testData as CO2 and, rescaled to 100–380
// µg/m³ (bands "acceptable" to "hazardous" on the PM scale, all "fresh"
// on the CO2 one), as PM.
func routeSummaryEngine(t *testing.T) *Engine {
	t.Helper()
	co2, pm := store.MustOpenMemory(600), store.MustOpenMemory(600)
	data := testData()
	if err := co2.Append(data); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i].S = 100 + 2*(data[i].S-420)
	}
	if err := pm.Append(data); err != nil {
		t.Fatal(err)
	}
	e, err := NewMultiEngineOpts(map[tuple.Pollutant]*store.Store{tuple.CO2: co2, tuple.PM: pm},
		core.Config{Cluster: kmeans.Config{Seed: 7}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func TestHTTPRouteSummary(t *testing.T) {
	api := NewAPI(routeSummaryEngine(t))
	srv := httptest.NewServer(api)
	defer srv.Close()

	body := `{"fixes":[
		{"t":100,"x":100,"y":100},
		{"t":160,"x":400,"y":200},
		{"t":220,"x":800,"y":400},
		{"t":280,"x":1200,"y":700}
	]}`
	for _, pol := range []tuple.Pollutant{tuple.CO2, tuple.PM} {
		t.Run(pol.String(), func(t *testing.T) {
			resp, err := http.Post(srv.URL+"/v1/route/summary?pollutant="+pol.String(), "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status = %d", resp.StatusCode)
			}
			var sum struct {
				Points []struct {
					Value float64 `json:"value"`
					Band  string  `json:"band"`
				} `json:"points"`
				Average  float64 `json:"average"`
				Band     string  `json:"band"`
				Advice   string  `json:"advice"`
				Worst    int     `json:"worst"`
				LengthM  float64 `json:"lengthMeters"`
				Duration float64 `json:"durationSeconds"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
				t.Fatal(err)
			}
			if len(sum.Points) != 4 {
				t.Fatalf("points = %d, want 4", len(sum.Points))
			}
			// The test field grows with x+y, so the last point is worst.
			if sum.Worst != 3 {
				t.Errorf("worst = %d, want 3", sum.Worst)
			}
			if sum.Duration != 180 {
				t.Errorf("duration = %v, want 180", sum.Duration)
			}
			if sum.LengthM < 1000 || sum.Advice == "" {
				t.Errorf("summary incomplete: %+v", sum)
			}
			// Bands are the pollutant's own, as /v1/query reports them.
			if want := ClassifyFor(pol, sum.Average); sum.Band != want.String() || sum.Advice != want.Advice() {
				t.Errorf("average %v: band %q (%q), want %q", sum.Average, sum.Band, sum.Advice, want)
			}
			for i, pt := range sum.Points {
				if want := ClassifyFor(pol, pt.Value).String(); pt.Value <= 0 || pt.Band != want {
					t.Errorf("point %d = %v banded %q, want %q", i, pt.Value, pt.Band, want)
				}
			}
		})
	}
}

func TestHTTPRouteSummaryErrors(t *testing.T) {
	api := NewAPI(newTestEngine(t))
	srv := httptest.NewServer(api)
	defer srv.Close()

	cases := []struct {
		name string
		body string
		want int
	}{
		{"not json", "zzz", http.StatusBadRequest},
		{"too few fixes", `{"fixes":[{"t":1,"x":0,"y":0}]}`, http.StatusBadRequest},
		{"empty window", `{"fixes":[{"t":1e12,"x":0,"y":0},{"t":1e12,"x":100,"y":0}]}`, http.StatusBadRequest},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			resp, err := http.Post(srv.URL+"/v1/route/summary", "application/json",
				bytes.NewReader([]byte(tt.body)))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tt.want {
				t.Errorf("status = %d, want %d", resp.StatusCode, tt.want)
			}
		})
	}
	// Wrong method.
	resp, err := http.Get(srv.URL + "/v1/route/summary")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d", resp.StatusCode)
	}
}
