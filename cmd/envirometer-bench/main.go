// Command envirometer-bench regenerates the paper's evaluation (§4): every
// figure plus the ablation studies from DESIGN.md. What the running
// system costs end to end is measured by benchmark/, not here.
//
// Usage:
//
//	envirometer-bench [-fig 6a|6b|7a|7b|ablations|all]
//	                  [-days N] [-queries N] [-seed N]
//
// By default it generates the full one-month synthetic lausanne-data
// equivalent (172,800 scheduled samples) and runs everything; -days trims
// the deployment for quick runs.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
)

func main() {
	var (
		fig     = flag.String("fig", "all", "which experiment: 6a, 6b, 7a, 7b, ablations, all")
		days    = flag.Float64("days", 30, "deployment duration to simulate, in days")
		queries = flag.Int("queries", 5000, "point queries per window size (Figure 6)")
		seed    = flag.Int64("seed", 1, "deterministic seed for data, workloads, clustering")
	)
	flag.Parse()
	switch *fig {
	case "6a", "6b", "7a", "7b", "ablations", "all":
	default:
		fmt.Fprintf(os.Stderr, "envirometer-bench: unknown -fig %q\n", *fig)
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*fig, *days, *queries, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "envirometer-bench:", err)
		os.Exit(1)
	}
}

func run(fig string, days float64, queries int, seed int64) error {
	fmt.Printf("# generating synthetic lausanne-data: %.1f days, seed %d\n", days, seed)
	d, err := bench.LoadDataset(seed, days*86400)
	if err != nil {
		return err
	}
	fmt.Printf("# dataset: %d raw tuples\n\n", len(d.Data))

	needFig6 := fig == "6a" || fig == "6b" || fig == "all"
	var fig6 []bench.Fig6Row
	if needFig6 {
		cfg := bench.DefaultFig6Config()
		cfg.NumQueries = queries
		cfg.Seed = seed
		fig6, err = bench.RunFig6(d, cfg)
		if err != nil {
			return fmt.Errorf("figure 6: %w", err)
		}
	}
	switch fig {
	case "6a":
		bench.PrintFig6a(os.Stdout, fig6)
	case "6b":
		bench.PrintFig6b(os.Stdout, fig6)
	case "7a":
		return runFig7a(d, seed)
	case "7b":
		return runFig7b(d, seed)
	case "ablations":
		return runAblations(d, queries, seed)
	case "all":
		bench.PrintFig6a(os.Stdout, fig6)
		fmt.Println()
		bench.PrintFig6b(os.Stdout, fig6)
		fmt.Println()
		if err := runFig7a(d, seed); err != nil {
			return err
		}
		fmt.Println()
		if err := runFig7b(d, seed); err != nil {
			return err
		}
		fmt.Println()
		return runAblations(d, queries, seed)
	}
	return nil
}

func runFig7a(d *bench.Dataset, seed int64) error {
	cfg := bench.DefaultFig7aConfig()
	cfg.Seed = seed
	res, err := bench.RunFig7a(d, cfg)
	if err != nil {
		return fmt.Errorf("figure 7a: %w", err)
	}
	bench.PrintFig7a(os.Stdout, res)
	return nil
}

func runFig7b(d *bench.Dataset, seed int64) error {
	cfg := bench.DefaultFig7bConfig()
	cfg.Seed = seed
	res, err := bench.RunFig7b(context.Background(), d, cfg)
	if err != nil {
		return fmt.Errorf("figure 7b: %w", err)
	}
	bench.PrintFig7b(os.Stdout, res)
	return nil
}

func runAblations(d *bench.Dataset, queries int, seed int64) error {
	covers, err := bench.RunAblationCovers(d, 2000, queries, seed)
	if err != nil {
		return fmt.Errorf("ablation covers: %w", err)
	}
	bench.PrintAblationCovers(os.Stdout, covers)
	fmt.Println()

	families, err := bench.RunAblationModelFamily(d, 2000, queries, seed)
	if err != nil {
		return fmt.Errorf("ablation model family: %w", err)
	}
	bench.PrintAblationModelFamily(os.Stdout, families)
	fmt.Println()

	codecs, err := bench.RunAblationCodec(d, 2000, seed)
	if err != nil {
		return fmt.Errorf("ablation codec: %w", err)
	}
	bench.PrintAblationCodec(os.Stdout, codecs)
	fmt.Println()

	idx, err := bench.RunAblationIndexTuning(d, 5000, queries, 1000, seed)
	if err != nil {
		return fmt.Errorf("ablation index tuning: %w", err)
	}
	bench.PrintAblationIndexTuning(os.Stdout, idx)
	return nil
}
