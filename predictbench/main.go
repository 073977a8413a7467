// Command predictbench is predictd's end-to-end benchmark. Each run starts
// a fresh predictd subprocess on a fresh state directory, drives seeded
// generated load at it, checks every served forecast of a seeded stream
// subset against an in-process replay, and prints one JSON result line.
//
//	predictbench -predictd BIN -work DIR --workload NAME --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// the traced variant and reports per-layer metrics. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"syscall"
)

func main() {
	var (
		predictd = flag.String("predictd", "", "predictd binary to benchmark")
		work     = flag.String("work", "", "scratch directory for state, logs and spans")
		name     = flag.String("workload", "", "workload name")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 10, "open-loop phase length in seconds")
		trace    = flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	)
	flag.Parse()
	runtime.GOMAXPROCS(runtime.NumCPU())
	// The harness allocates little per batch; collecting less often keeps
	// its own GC pauses out of the latencies it measures.
	debug.SetGCPercent(400)
	if err := runBench(*predictd, *work, *name, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "predictbench:", err)
		os.Exit(1)
	}
}

// result is the machine-readable last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func runBench(predictd, work, name string, seed uint64, seconds, trace int) error {
	if predictd == "" || work == "" {
		return fmt.Errorf("-predictd and -work are required")
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds %d < 1", seconds)
	}
	wl, err := findWorkload(name)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	e := env{predictd: predictd, work: work, seed: seed, seconds: seconds}

	var p *report
	var r *run
	var res *results
	if trace == 1 {
		p, r, res, err = traced(ctx, wl, e)
	} else {
		p, r, res, err = endToEnd(ctx, wl, e)
	}
	if err != nil {
		return err
	}
	p.print(trace == 1)
	failedRatio := float64(r.failed) / float64(r.attempted)
	fmt.Printf("%-36s %14.6f %-6s %d of %d operations\n", "failed_ratio", failedRatio, "ratio", r.failed, r.attempted)
	fmt.Printf("%-36s %14d %-6s of %d checked streams\n", "forecast_mismatches", res.mismatch, "count", len(r.subs))
	fmt.Printf("oracle: replayed forecasts by source %v\n", r.orc.sources)
	if res.firstBad != nil {
		fmt.Println("first mismatch:", res.firstBad)
	}
	out, err := json.Marshal(result{
		Correct:   res.mismatch == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   p.gated(trace == 1),
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
