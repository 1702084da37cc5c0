package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// manifest is the part of BENCHMARK.json the benchmark reads back.
type manifest struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	RunSeconds int `json:"run_seconds"`
}

func readManifest() (*manifest, error) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

// timings are the wall-clock diagnostics --repeat prints beside the
// gated metrics, to show on any host whether they would hold a bound.
var timings = []string{"e2e.ops_per_s", "e2e.read_p50_ms", "e2e.read_p90_ms", "e2e.write_p50_ms"}

// selfCheck runs every workload n times, each run a fresh process and a
// new seed as the driver does, and prints per workload and end-to-end
// metric the median, (max − min) / median and the quartile spread the
// contract gates on; then the same for the timings, which carry no
// bound. It returns 1 when a quartile spread exceeds the metric's bound
// in BENCHMARK.json (setup_s excepted, as in the contract).
func selfCheck(n int, seed int64, seconds int, quick bool) int {
	m, err := readManifest()
	if err != nil {
		fatal(err)
	}
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	status := 0
	for _, w := range workloads {
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			args := []string{"-workload", w.name, "-seed", strconv.FormatInt(seed+int64(i), 10), "-seconds", strconv.Itoa(seconds)}
			if quick {
				args = append(args, "-quick")
			}
			out, err := exec.Command(self, args...).Output()
			if err != nil {
				fmt.Printf("%s run %d: %v\n", w.name, i+1, err)
				status = 1
				continue
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				fatal(fmt.Errorf("%s run %d: last line is not a result: %w", w.name, i+1, err))
			}
			for name, v := range res.Metrics {
				values[name] = append(values[name], v.Value)
			}
			// The run's timings and host probes, from its stored report: a
			// run disturbed from outside is recognisable next to its numbers.
			d, h := storedReport(w.name)
			for _, name := range timings {
				values[name] = append(values[name], d[name])
			}
			fmt.Printf("%s run %d/%d seed %d: setup_s %.3f  ops_per_s %.1f  read_p50_ms %.3f  host: null_rtt %.1fus spin %.2fms cpu %.1fs gc_pause %.0fms steal %.1f%%\n",
				w.name, i+1, n, seed+int64(i), res.Metrics["setup_s"].Value, d["e2e.ops_per_s"], d["e2e.read_p50_ms"],
				h["host.null_rtt_us"], h["host.spin_ms"], h["host.cpu_s"], h["host.gc_pause_ms"], h["host.steal_pct"])
		}
		fmt.Printf("\n%-14s %-22s %14s %10s %10s %8s\n", "workload", "metric", "median", "range", "quartiles", "bound")
		row := func(name, bound string) {
			v := values[name]
			fmt.Printf("%-14s %-22s %14.4f %9.2f%% %9.2f%% %8s\n", w.name, name, median(v), spread(v)*100, quartileSpread(v)*100, bound)
		}
		for _, e := range m.EndToEnd {
			bound := fmt.Sprintf("%.0f%%", e.Bound*100)
			if quartileSpread(values[e.Name]) > e.Bound && e.Name != "setup_s" {
				bound, status = bound+"  EXCEEDS", 1
			}
			row(e.Name, bound)
		}
		for _, name := range timings {
			row(name, "-")
		}
		fmt.Println()
	}
	return status
}

// storedReport reads the diagnostics and host probes of the last run of
// a workload back from out/.
func storedReport(workload string) (diagnostics, host map[string]float64) {
	var rep struct {
		Diagnostics map[string]float64 `json:"diagnostics"`
		Host        map[string]float64 `json:"host"`
	}
	if raw, err := os.ReadFile(filepath.Join("out", "report-"+workload+".json")); err == nil {
		_ = json.Unmarshal(raw, &rep) // a missing or broken report prints zeros
	}
	return rep.Diagnostics, rep.Host
}
