// Command benchmark is EnviroMeter's one end-to-end benchmark: four
// fixed-work, closed-loop workloads against the real serving paths, nine
// end-to-end metrics per workload, and a traced run that splits a
// request's time over the layers. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

const (
	defaultSeed    = 1
	defaultSeconds = 10
	quickDivisor   = 20
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+workloadNames())
		seed    = flag.Int64("seed", defaultSeed, "seed of the dataset and the operation sequence")
		seconds = flag.Int("seconds", defaultSeconds, "nominal length of the measured phase; scales the fixed operation count")
		trace   = flag.Int("trace", 0, "1 runs the traced segment and prints the per-layer metrics instead")
		quick   = flag.Bool("quick", false, "smoke mode: 1/20 of the operations, output stamped comparable=false")
		repeat  = flag.Int("repeat", 0, "run every workload N times and check repeatability against the bounds in BENCHMARK.json")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds %d, want at least 1", *seconds))
	}
	if *repeat > 0 {
		os.Exit(selfCheck(*repeat, *seed, *seconds, *quick))
	}
	w := findWorkload(*name)
	if w == nil {
		fatal(fmt.Errorf("-workload %q, want one of %s", *name, workloadNames()))
	}
	rep, err := runOnce(w, *seed, *seconds, *trace == 1, *quick)
	if err != nil {
		fatal(err)
	}
	printReport(rep)
	if err := emit(rep); err != nil {
		fatal(err)
	}
	if !rep.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// runOnce performs one run of one workload.
func runOnce(w *workload, seed int64, seconds int, traced, quick bool) (*report, error) {
	clients := clientCount()
	runtime.GOMAXPROCS(clients)
	debug.SetGCPercent(gcPercent)
	ops := w.opsPerSecond * seconds
	if quick {
		ops /= quickDivisor
	}
	b, err := newBench(context.Background(), w, seed, ops)
	if err != nil {
		return nil, err
	}
	defer b.close()
	rep := &report{
		Workload: w.name, Seed: seed, Seconds: seconds, Traced: traced,
		Comparable: !quick, Clients: clients,
		SequenceHash: fmt.Sprintf("%016x", b.in.hash()),
		Operations:   b.in.segLen * segments,
		Attempted:    map[string]int64{}, Failed: map[string]int64{},
		Samples: map[string]int{},
	}
	cpu0, gc0, stolen0, wall0 := cpuSeconds(), gcPauseMS(), stolenSeconds(), time.Now()
	if traced {
		err = b.runTraced(rep)
	} else {
		err = b.runEndToEnd(rep)
	}
	if err != nil {
		return nil, err
	}
	rep.Host = map[string]float64{
		"host.null_rtt_us": median(b.host.rttUS),
		"host.spin_ms":     median(b.host.spinMS),
		"host.cpu_s":       cpuSeconds() - cpu0,
		"host.gc_pause_ms": gcPauseMS() - gc0,
	}
	// Not in BENCHMARK.json: the share of the run's processor time that
	// went to other guests. A run with more than a few percent is junk.
	rep.Host["host.steal_pct"] = 100 * (stolenSeconds() - stolen0) / (time.Since(wall0).Seconds() * float64(runtime.NumCPU()))
	if traced {
		for k, v := range rep.Host {
			rep.PerLayer[k] = v
		}
	}
	return rep, nil
}

// printReport writes the human-readable report: every metric by name
// with its unit, diagnostics, counts and the host probes.
func printReport(rep *report) {
	fmt.Printf("workload %s  seed %d  seconds %d  clients %d  ops %d  measured %.2fs  comparable %v  sequence %s\n",
		rep.Workload, rep.Seed, rep.Seconds, rep.Clients, rep.Operations, rep.MeasuredS, rep.Comparable, rep.SequenceHash)
	for _, k := range sortedKeys(rep.Attempted) {
		fmt.Printf("  %-8s attempted %7d  failed %d\n", k, rep.Attempted[k], rep.Failed[k])
	}
	if rep.FirstError != "" {
		fmt.Printf("  first error: %s\n", rep.FirstError)
	}
	table := func(defs []metricDef, values map[string]float64) {
		for _, d := range defs {
			fmt.Printf("  %-34s %14.4f %s\n", d.name, values[d.name], d.unit)
		}
	}
	if rep.Traced {
		table(perLayer, rep.PerLayer)
		for _, k := range sortedKeys(rep.LayerShares) {
			fmt.Printf("  self time/op  %-20s %12.2f us\n", k, rep.LayerShares[k])
		}
	} else {
		table(endToEnd, rep.EndToEnd)
	}
	for _, k := range sortedKeys(rep.Diagnostics) {
		fmt.Printf("  %-34s %14.4f\n", k, rep.Diagnostics[k])
	}
	for _, k := range sortedKeys(rep.Samples) {
		fmt.Printf("  samples %-26s %14d\n", k, rep.Samples[k])
	}
	if !rep.Traced { // the traced run lists them among the per-layer metrics
		for _, k := range sortedKeys(rep.Host) {
			fmt.Printf("  %-34s %14.4f\n", k, rep.Host[k])
		}
	}
	if rep.TraceFile != "" {
		fmt.Printf("  trace written to benchmark/%s\n", rep.TraceFile)
	}
	if rep.Correct {
		fmt.Println("  oracle: pass")
	} else {
		fmt.Printf("  oracle: FAIL: %s\n", rep.OracleError)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// emit stores the whole report under out/ and prints, as the last line
// of standard output, the result object the benchmark contract asks
// for: the metrics BENCHMARK.json names for this kind of run.
func emit(rep *report) error {
	if err := os.MkdirAll("out", 0o755); err != nil {
		return err
	}
	full, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join("out", "report-"+rep.Workload+".json"), full, 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(rep.result())
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (rep *report) result() result {
	defs, values := endToEnd, rep.EndToEnd
	if rep.Traced {
		defs, values = perLayer, rep.PerLayer
	}
	res := result{
		Correct: rep.Correct, Attempted: rep.attemptedAll, Failed: rep.failedAll,
		Metrics: make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return res
}
