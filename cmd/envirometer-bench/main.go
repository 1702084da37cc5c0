// Command envirometer-bench regenerates the paper's evaluation (§4): every
// figure plus the ablation studies from DESIGN.md, and the PR-6
// subscription-vs-polling experiment.
//
// Usage:
//
//	envirometer-bench [-fig 6a|6b|7a|7b|ablations|subs|failover|rebalance|all]
//	                  [-days N] [-queries N] [-seed N]
//	                  [-subscribers N] [-rounds N] [-out FILE]
//
// By default it generates the full one-month synthetic lausanne-data
// equivalent (172,800 scheduled samples) and runs everything; -days trims
// the deployment for quick runs. -fig subs runs the closed-loop push
// benchmark and, with -out, writes its JSON result (BENCH_6.json) after
// re-parsing and sanity-checking the file. -fig failover runs the
// replica-failover / hedged-read benchmark (BENCH_9.json) the same way.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
)

func main() {
	var (
		fig         = flag.String("fig", "all", "which experiment: 6a, 6b, 7a, 7b, ablations, subs, failover, rebalance, all")
		days        = flag.Float64("days", 30, "deployment duration to simulate, in days")
		queries     = flag.Int("queries", 5000, "point queries per window size (Figure 6)")
		seed        = flag.Int64("seed", 1, "deterministic seed for data, workloads, clustering")
		subscribers = flag.Int("subscribers", 0, "subscription bench: subscriber count (0 = default)")
		rounds      = flag.Int("rounds", 0, "subscription bench: ingest rounds (0 = default)")
		out         = flag.String("out", "", "subs/failover/rebalance bench: write the JSON result to this file")
	)
	flag.Parse()
	if *fig == "subs" {
		if err := runSubs(*subscribers, *rounds, *seed, *out); err != nil {
			fmt.Fprintln(os.Stderr, "envirometer-bench:", err)
			os.Exit(1)
		}
		return
	}
	if *fig == "rebalance" {
		queriesSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "queries" {
				queriesSet = true
			}
		})
		q := 0
		if queriesSet {
			q = *queries
		}
		if err := runRebalance(q, *seed, *out); err != nil {
			fmt.Fprintln(os.Stderr, "envirometer-bench:", err)
			os.Exit(1)
		}
		return
	}
	if *fig == "failover" {
		queriesSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "queries" {
				queriesSet = true
			}
		})
		q := 0
		if queriesSet {
			q = *queries
		}
		if err := runFailover(q, *seed, *out); err != nil {
			fmt.Fprintln(os.Stderr, "envirometer-bench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*fig, *days, *queries, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "envirometer-bench:", err)
		os.Exit(1)
	}
}

// runSubs drives the closed-loop subscription benchmark and optionally
// persists BENCH_6.json, verifying the written file parses back and
// shows the push path actually transferring less than polling.
func runSubs(subscribers, rounds int, seed int64, out string) error {
	cfg := bench.DefaultSubsConfig()
	cfg.Seed = seed
	if subscribers > 0 {
		cfg.Subscribers = subscribers
	}
	if rounds > 0 {
		cfg.Rounds = rounds
	}
	res, err := bench.RunSubs(cfg)
	if err != nil {
		return err
	}
	bench.PrintSubs(os.Stdout, res)
	if out == "" {
		return nil
	}
	doc, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(doc, '\n'), 0o644); err != nil {
		return err
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		return err
	}
	var check bench.SubsResult
	if err := json.Unmarshal(raw, &check); err != nil {
		return fmt.Errorf("%s does not parse back: %w", out, err)
	}
	if check.PushedBytes <= 0 || check.PolledBytes <= 0 {
		return fmt.Errorf("%s records no traffic (pushed %d, polled %d)", out, check.PushedBytes, check.PolledBytes)
	}
	if check.PushedBytes >= check.PolledBytes {
		return fmt.Errorf("%s: pushed bytes %d not below polled bytes %d", out, check.PushedBytes, check.PolledBytes)
	}
	fmt.Printf("\nwrote %s (%d bytes, parses back OK)\n", out, len(raw))
	return nil
}

// runFailover drives the replica-failover / hedged-read benchmark and
// optionally persists BENCH_9.json, verifying the written file parses
// back and records a passing run: zero failed queries and byte-equal
// replica answers after killing a node, and a hedged p99 no worse than
// the unhedged one against a slow primary.
func runFailover(queries int, seed int64, out string) error {
	cfg := bench.DefaultFailoverConfig()
	cfg.Seed = seed
	if queries > 0 {
		cfg.Queries = queries
	}
	res, err := bench.RunFailover(cfg)
	if err != nil {
		return err
	}
	bench.PrintFailover(os.Stdout, res)
	if !res.ZeroErrorFailover {
		return fmt.Errorf("failover was not error-free: %d/%d queries failed, %d ingest failures, %d failovers",
			res.FailedAfterKill, res.QueriesAfterKill, res.IngestFailures, res.ClientFailovers)
	}
	if !res.ByteEqualReplicas {
		return fmt.Errorf("%d replica answers diverged from the dead owner's", res.Mismatches)
	}
	if !res.HedgeP99Improved {
		return fmt.Errorf("hedging did not hold p99: hedged %.3fms vs unhedged %.3fms (%d wins)",
			res.HedgedP99Ms, res.UnhedgedP99Ms, res.HedgeWins)
	}
	if out == "" {
		return nil
	}
	doc, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(doc, '\n'), 0o644); err != nil {
		return err
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		return err
	}
	var check bench.FailoverResult
	if err := json.Unmarshal(raw, &check); err != nil {
		return fmt.Errorf("%s does not parse back: %w", out, err)
	}
	if !check.ZeroErrorFailover || !check.ByteEqualReplicas || !check.HedgeP99Improved {
		return fmt.Errorf("%s records a failing run (zero-error %v, byte-equal %v, hedge %v)",
			out, check.ZeroErrorFailover, check.ByteEqualReplicas, check.HedgeP99Improved)
	}
	if check.VictimShardQueries <= 0 || check.HedgeWins <= 0 {
		return fmt.Errorf("%s records no victim-shard reads (%d) or hedge wins (%d)",
			out, check.VictimShardQueries, check.HedgeWins)
	}
	fmt.Printf("\nwrote %s (%d bytes, parses back OK)\n", out, len(raw))
	return nil
}

// runRebalance drives the live-join rebalance benchmark and optionally
// persists BENCH_10.json, verifying the written file parses back and
// records a passing run: zero query errors while the fourth node
// joined, the membership epoch advanced exactly once on every member,
// the joiner owns shards, and every sampled answer after the rebalance
// is byte-equal to the answer before it.
func runRebalance(queries int, seed int64, out string) error {
	cfg := bench.DefaultRebalanceConfig()
	cfg.Seed = seed
	if queries > 0 {
		cfg.Queries = queries
	}
	res, err := bench.RunRebalance(cfg)
	if err != nil {
		return err
	}
	bench.PrintRebalance(os.Stdout, res)
	if !res.ZeroErrorJoin {
		return fmt.Errorf("join was not error-free: %d/%d queries failed during the join window",
			res.JoinErrors, res.JoinQueries)
	}
	if !res.EpochAdvancedOnce {
		return fmt.Errorf("epoch did not advance exactly once everywhere (%d -> %d)",
			res.EpochBefore, res.EpochAfter)
	}
	if !res.JoinerOwnsShards {
		return fmt.Errorf("joiner owns no shards after the commit")
	}
	if !res.AnswersPreserved {
		return fmt.Errorf("%d answers changed across the rebalance", res.PostMismatches)
	}
	if out == "" {
		return nil
	}
	doc, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(doc, '\n'), 0o644); err != nil {
		return err
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		return err
	}
	var check bench.RebalanceResult
	if err := json.Unmarshal(raw, &check); err != nil {
		return fmt.Errorf("%s does not parse back: %w", out, err)
	}
	if !check.ZeroErrorJoin || !check.EpochAdvancedOnce || !check.JoinerOwnsShards || !check.AnswersPreserved {
		return fmt.Errorf("%s records a failing run (zero-error %v, epoch %v, shards %v, answers %v)",
			out, check.ZeroErrorJoin, check.EpochAdvancedOnce, check.JoinerOwnsShards, check.AnswersPreserved)
	}
	if check.JoinQueries <= 0 || check.JoinP99Ms <= 0 {
		return fmt.Errorf("%s records no join-window latency sample (%d queries, p99 %.3fms)",
			out, check.JoinQueries, check.JoinP99Ms)
	}
	fmt.Printf("\nwrote %s (%d bytes, parses back OK)\n", out, len(raw))
	return nil
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
	default:
		return fmt.Errorf("unknown -fig %q (want 6a, 6b, 7a, 7b, ablations, subs, failover, rebalance, all)", fig)
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
	res, err := bench.RunFig7b(d, cfg)
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
