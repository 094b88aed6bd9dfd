// Adaptive: the paper's jbb rescue story. Stride prefetching's deep L2
// startup bursts overshoot SPECjbb's short allocation streams, polluting
// the shared cache and slowing it down ~25%; the adaptive mechanism uses
// compression's extra cache tags to detect the useless and harmful
// prefetches and throttle them.
//
//	go run ./examples/adaptive
package main

import (
	"fmt"
	"log"

	"cmpsim/internal/coherence"
	"cmpsim/internal/core"
	"cmpsim/internal/stats"
)

func main() {
	log.SetFlags(0)
	opts := core.QuickOptions()
	opts.Warmup = 1_500_000
	opts.Measure = 500_000

	s := core.NewScheduler(0) // one worker per CPU
	defer s.Close()
	// Submit all three points before waiting, so they simulate in parallel.
	fBase := s.Submit("jbb", core.Base, opts)
	fPf := s.Submit("jbb", core.Prefetch, opts)
	fAd := s.Submit("jbb", core.AdaptivePf, opts)
	base, pf, ad := must(fBase.Wait()), must(fPf.Wait()), must(fAd.Wait())

	fmt.Println("SPECjbb on the 8-core CMP:")
	fmt.Printf("  stride prefetching:   %+6.1f%%\n", stats.SpeedupPct(core.Speedup(base, pf)))
	fmt.Printf("  adaptive prefetching: %+6.1f%%\n", stats.SpeedupPct(core.Speedup(base, ad)))
	fmt.Println()

	show := func(name string, p core.Point) {
		m := &p.Runs[0]
		e := m.Engine(coherence.PfL2)
		fmt.Printf("  %-12s L2 pf rate %5.2f/KI  accuracy %5.1f%%  useless evicts %d\n",
			name, e.RatePer1000(m.Instructions), e.Accuracy()*100, m.Adaptive.Useless)
	}
	fmt.Println("Why: the adaptive counter throttles the 25-deep L2 startup bursts")
	show("stride:", pf)
	show("adaptive:", ad)
	fmt.Printf("\n  adaptive events: %d useful, %d useless, %d harmful\n",
		ad.Runs[0].Adaptive.Useful, ad.Runs[0].Adaptive.Useless, ad.Runs[0].Adaptive.Harmful)
	fmt.Printf("  final saturating counters: L1I %.1f  L1D %.1f  L2 %d (start: 6/6/25)\n",
		ad.Runs[0].Adaptive.FinalCapL1I, ad.Runs[0].Adaptive.FinalCapL1D,
		ad.Runs[0].Adaptive.FinalCapL2)
}

func must(p core.Point, err error) core.Point {
	if err != nil {
		log.Fatal(err)
	}
	return p
}
