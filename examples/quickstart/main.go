// Quickstart: simulate the paper's 8-core CMP running the zeus web
// server under the four mechanism combinations and print the speedups
// and the interaction term (EQ 5).
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"cmpsim/internal/core"
	"cmpsim/internal/stats"
)

func main() {
	log.SetFlags(0)

	// A scaled-down run so the example finishes in seconds; use
	// core.DefaultOptions() for paper-scale warmups.
	opts := core.QuickOptions()
	opts.Warmup = 1_500_000
	opts.Measure = 500_000

	// The scheduler runs every point; submitting all of them before
	// waiting on any lets its pool simulate them in parallel.
	s := core.NewScheduler(0) // one worker per CPU
	defer s.Close()
	futures := make(map[core.Mechanisms]*core.PointFuture)
	for _, m := range []core.Mechanisms{core.Base, core.Prefetch, core.Compression, core.PrefCompr, core.AdaptiveCompr} {
		futures[m] = s.Submit("zeus", m, opts)
	}
	wait := func(m core.Mechanisms) core.Point {
		p, err := futures[m].Wait()
		if err != nil {
			log.Fatal(err)
		}
		return p
	}

	fmt.Println("zeus on an 8-core CMP, 4 MB shared L2, 20 GB/s pins")
	fmt.Println()

	base := wait(core.Base)
	fmt.Printf("%-28s %12.0f cycles (IPC %.2f)\n", "base",
		base.Runtime.Mean, base.Runs[0].IPC)

	show := func(name string, m core.Mechanisms) core.Point {
		p := wait(m)
		fmt.Printf("%-28s %12.0f cycles (%+.1f%%)\n", name,
			p.Runtime.Mean, stats.SpeedupPct(core.Speedup(base, p)))
		return p
	}

	pf := show("stride prefetching", core.Prefetch)
	compr := show("cache+link compression", core.Compression)
	both := show("prefetching + compression", core.PrefCompr)
	show("adaptive pf + compression", core.AdaptiveCompr)

	inter := stats.InteractionPct(core.Speedup(base, pf),
		core.Speedup(base, compr), core.Speedup(base, both))
	fmt.Printf("\nInteraction(Pref, Compr) = %+.1f%% (EQ 5)\n", inter)
	fmt.Println("Positive: the combination beats the product of the individual speedups.")
}
