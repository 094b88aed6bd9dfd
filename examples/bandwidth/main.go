// Bandwidth: the Figure 11 sensitivity study. The positive interaction
// between compression and prefetching comes largely from link
// compression relieving the pin-bandwidth contention that prefetching
// creates — so the interaction should be strongest when pins are scarce
// (10-20 GB/s) and fade when they are plentiful (40-80 GB/s).
//
//	go run ./examples/bandwidth
package main

import (
	"fmt"
	"log"

	"cmpsim/internal/core"
	"cmpsim/internal/stats"
)

func main() {
	log.SetFlags(0)
	opts := core.QuickOptions()
	opts.Warmup = 1_200_000
	opts.Measure = 400_000

	bench := "zeus"
	bandwidths := []float64{10, 20, 40, 80}
	mechs := []core.Mechanisms{core.Base, core.Prefetch, core.Compression, core.PrefCompr}

	// Submit every point up front so the scheduler's pool simulates them
	// in parallel, then collect one row per bandwidth.
	s := core.NewScheduler(0) // one worker per CPU
	defer s.Close()
	futures := make([][]*core.PointFuture, len(bandwidths))
	for i, gb := range bandwidths {
		o := opts
		o.BandwidthGBps = gb
		for _, m := range mechs {
			futures[i] = append(futures[i], s.Submit(bench, m, o))
		}
	}

	fmt.Printf("Interaction(Pref, Compr) for %s vs available pin bandwidth\n\n", bench)
	fmt.Printf("%8s %12s %12s %12s %12s\n", "GB/s", "pf", "compr", "both", "interaction")
	for i, gb := range bandwidths {
		f := futures[i]
		base := must(f[0].Wait())
		sp := core.Speedup(base, must(f[1].Wait()))
		sc := core.Speedup(base, must(f[2].Wait()))
		sb := core.Speedup(base, must(f[3].Wait()))
		fmt.Printf("%8.0f %+11.1f%% %+11.1f%% %+11.1f%% %+11.1f%%\n",
			gb, stats.SpeedupPct(sp), stats.SpeedupPct(sc), stats.SpeedupPct(sb),
			stats.InteractionPct(sp, sc, sb))
	}
	fmt.Println("\nExpected shape: the interaction column shrinks toward zero as")
	fmt.Println("bandwidth grows — compression stops mattering once pins are free.")
}

func must(p core.Point, err error) core.Point {
	if err != nil {
		log.Fatal(err)
	}
	return p
}
