// Webserver: reproduce the shape of Figure 1 — how the benefit of
// stride prefetching collapses as cores are added to the CMP while
// compression's benefit holds, using the zeus static web server.
//
//	go run ./examples/webserver
package main

import (
	"fmt"
	"log"
	"os"

	"cmpsim/internal/core"
	"cmpsim/internal/report"
)

func main() {
	log.SetFlags(0)
	opts := core.QuickOptions()
	opts.Warmup = 1_200_000
	opts.Measure = 400_000

	fmt.Println("Figure 1 shape: zeus, mechanisms vs core count")
	fmt.Println("(the paper: prefetching +74% at 1 core, -8% at 16;")
	fmt.Println(" compression grows slowly; the combination stays strong)")
	fmt.Println()

	s := core.NewScheduler(0) // one worker per CPU
	defer s.Close()
	rows := s.CoreSweep("zeus", []int{1, 4, 8, 16}, opts)
	report.CoreSweep(os.Stdout, "zeus core sweep", rows)

	// Highlight the headline comparison.
	first, last := rows[0], rows[len(rows)-1]
	fmt.Printf("\nprefetching alone:  %+0.1f%% at %d core(s) -> %+0.1f%% at %d cores\n",
		first.PrefPct, first.Cores, last.PrefPct, last.Cores)
	fmt.Printf("with compression:   %+0.1f%% at %d core(s) -> %+0.1f%% at %d cores\n",
		first.BothPct, first.Cores, last.BothPct, last.Cores)
}
