// Package report renders the experiment drivers' results as the ASCII
// analogues of the paper's tables and figures.
package report

import (
	"fmt"
	"io"
	"sort"

	"cmpsim/internal/core"
)

// failedCell renders a failed row's explicit marker. Studies degrade
// gracefully: a failed point produces a FAILED(reason) cell, never a
// silently-zero row.
func failedCell(reason string) string { return fmt.Sprintf("FAILED(%s)", reason) }

// Table3 prints the compression-ratio table.
func Table3(w io.Writer, rows []core.CompressionRow) {
	fmt.Fprintln(w, "Table 3: Cache compression ratios (effective size / 4 MB)")
	fmt.Fprintf(w, "  %-8s %8s %14s\n", "bench", "ratio", "effective MB")
	for _, r := range rows {
		if r.Failed != "" {
			fmt.Fprintf(w, "  %-8s %s\n", r.Benchmark, failedCell(r.Failed))
			continue
		}
		fmt.Fprintf(w, "  %-8s %8.2f %14.2f\n", r.Benchmark, r.Ratio, r.Ratio*4)
	}
}

// Fig3 prints the miss-rate reduction chart data.
func Fig3(w io.Writer, rows []core.CompressionRow) {
	fmt.Fprintln(w, "Figure 3: L2 miss-rate reduction from cache compression (%)")
	fmt.Fprintf(w, "  %-8s %12s %12s %10s\n", "bench", "base /KI", "compr /KI", "reduction")
	for _, r := range rows {
		if r.Failed != "" {
			fmt.Fprintf(w, "  %-8s %s\n", r.Benchmark, failedCell(r.Failed))
			continue
		}
		fmt.Fprintf(w, "  %-8s %12.2f %12.2f %9.1f%%\n",
			r.Benchmark, r.BaseMissPerKI, r.ComprMissPerKI, r.MissReductionPct)
	}
}

// Fig4 prints the pin-bandwidth demand chart data.
func Fig4(w io.Writer, rows []core.BandwidthRow) {
	fmt.Fprintln(w, "Figure 4: Pin bandwidth demand (GB/s), infinite pins")
	fmt.Fprintf(w, "  %-8s %8s %8s %8s %8s\n", "bench", "none", "cache", "link", "both")
	for _, r := range rows {
		if r.Failed != "" {
			fmt.Fprintf(w, "  %-8s %s\n", r.Benchmark, failedCell(r.Failed))
			continue
		}
		fmt.Fprintf(w, "  %-8s %8.2f %8.2f %8.2f %8.2f\n",
			r.Benchmark, r.None, r.CacheOnly, r.LinkOnly, r.Both)
	}
}

// Fig5 prints the compression speedup chart data.
func Fig5(w io.Writer, rows []core.CompressionRow) {
	fmt.Fprintln(w, "Figure 5: Compression speedup (%) relative to base")
	fmt.Fprintf(w, "  %-8s %10s %10s %10s\n", "bench", "cache", "link", "both")
	for _, r := range rows {
		if r.Failed != "" {
			fmt.Fprintf(w, "  %-8s %s\n", r.Benchmark, failedCell(r.Failed))
			continue
		}
		fmt.Fprintf(w, "  %-8s %+9.1f%% %+9.1f%% %+9.1f%%\n",
			r.Benchmark, r.SpeedupCachePct, r.SpeedupLinkPct, r.SpeedupBothPct)
	}
}

// Table4 prints the prefetching-properties table.
func Table4(w io.Writer, rows []core.PrefetchPropsRow) {
	fmt.Fprintln(w, "Table 4: Prefetching properties (rate /KI, coverage %, accuracy %)")
	fmt.Fprintf(w, "  %-8s | %6s %6s %6s | %6s %6s %6s | %6s %6s %6s\n",
		"bench", "I-rate", "I-cov", "I-acc", "D-rate", "D-cov", "D-acc", "2-rate", "2-cov", "2-acc")
	for _, r := range rows {
		if r.Failed != "" {
			fmt.Fprintf(w, "  %-8s | %s\n", r.Benchmark, failedCell(r.Failed))
			continue
		}
		fmt.Fprintf(w, "  %-8s | %6.2f %6.1f %6.1f | %6.2f %6.1f %6.1f | %6.2f %6.1f %6.1f\n",
			r.Benchmark,
			r.L1I.RatePer1000, r.L1I.CoveragePct, r.L1I.AccuracyPct,
			r.L1D.RatePer1000, r.L1D.CoveragePct, r.L1D.AccuracyPct,
			r.L2.RatePer1000, r.L2.CoveragePct, r.L2.AccuracyPct)
	}
}

// Fig6 prints the prefetching speedup chart data.
func Fig6(w io.Writer, rows []core.PrefetchSpeedupRow) {
	fmt.Fprintln(w, "Figure 6: Prefetching speedup (%) relative to no prefetching")
	fmt.Fprintf(w, "  %-8s %10s %12s\n", "bench", "stride", "adaptive")
	for _, r := range rows {
		if r.Failed != "" {
			fmt.Fprintf(w, "  %-8s %s\n", r.Benchmark, failedCell(r.Failed))
			continue
		}
		fmt.Fprintf(w, "  %-8s %+9.1f%% %+11.1f%%\n", r.Benchmark, r.SpeedupPct, r.AdaptiveSpeedupPct)
	}
}

// Fig7 prints the normalized bandwidth-demand growth.
func Fig7(w io.Writer, rows []core.InteractionRow) {
	fmt.Fprintln(w, "Figure 7: Bandwidth demand growth over base (%), infinite pins")
	fmt.Fprintf(w, "  %-8s %12s %14s\n", "bench", "pf alone", "pf+compression")
	for _, r := range rows {
		if r.Failed != "" {
			fmt.Fprintf(w, "  %-8s %s\n", r.Benchmark, failedCell(r.Failed))
			continue
		}
		fmt.Fprintf(w, "  %-8s %+11.1f%% %+13.1f%%\n",
			r.Benchmark, r.BWBasePrefGrowthPct, r.BWComprPrefGrowthPct)
	}
}

// Fig8 prints the L2 miss classification.
func Fig8(w io.Writer, rows []core.MissClassRow) {
	fmt.Fprintln(w, "Figure 8: L2 miss/prefetch breakdown (% of base demand misses)")
	fmt.Fprintf(w, "  %-8s %9s %9s %9s %8s %9s %9s\n",
		"bench", "unavoid", "only-C", "only-P", "either", "pf-kept", "pf-avoid")
	for _, r := range rows {
		if r.Failed != "" {
			fmt.Fprintf(w, "  %-8s %s\n", r.Benchmark, failedCell(r.Failed))
			continue
		}
		fmt.Fprintf(w, "  %-8s %8.1f%% %8.1f%% %8.1f%% %7.1f%% %8.1f%% %8.1f%%\n",
			r.Benchmark, r.NotAvoidedPct, r.OnlyComprPct, r.OnlyPrefPct,
			r.EitherPct, r.PrefFetchPct, r.PrefAvoidedPct)
	}
}

// Table5 prints the speedups-and-interactions table (also Figure 9).
func Table5(w io.Writer, rows []core.InteractionRow) {
	fmt.Fprintln(w, "Table 5 / Figure 9: Speedups and interactions (%)")
	fmt.Fprintf(w, "  %-8s %8s %8s %8s %10s %12s\n",
		"bench", "pref", "compr", "both", "ad+compr", "interaction")
	for _, r := range rows {
		if r.Failed != "" {
			fmt.Fprintf(w, "  %-8s %s\n", r.Benchmark, failedCell(r.Failed))
			continue
		}
		fmt.Fprintf(w, "  %-8s %+7.1f%% %+7.1f%% %+7.1f%% %+9.1f%% %+11.1f%%\n",
			r.Benchmark, r.PrefPct, r.ComprPct, r.BothPct, r.AdaptiveBothPct, r.InteractionPct)
	}
}

// Fig10 prints the adaptive-prefetching comparison.
func Fig10(w io.Writer, rows []core.AdaptiveRow) {
	fmt.Fprintln(w, "Figure 10: Prefetching vs adaptive prefetching speedup (%)")
	fmt.Fprintf(w, "  %-8s %8s %10s %10s %12s\n", "bench", "pf", "adaptive", "pf+compr", "adapt+compr")
	for _, r := range rows {
		if r.Failed != "" {
			fmt.Fprintf(w, "  %-8s %s\n", r.Benchmark, failedCell(r.Failed))
			continue
		}
		fmt.Fprintf(w, "  %-8s %+7.1f%% %+9.1f%% %+9.1f%% %+11.1f%%\n",
			r.Benchmark, r.PrefPct, r.AdaptivePct, r.PrefComprPct, r.AdaptiveComprPct)
	}
}

// Fig11 prints the interaction-vs-bandwidth sweep.
func Fig11(w io.Writer, rows []core.BandwidthSweepRow) {
	fmt.Fprintln(w, "Figure 11: Interaction (%) vs available pin bandwidth (GB/s)")
	if len(rows) == 0 {
		return
	}
	// Derive the bandwidth header from the first row that has data — a
	// failed first row carries no InteractionPct map.
	var bws []int
	for _, r := range rows {
		if r.Failed != "" {
			continue
		}
		for gb := range r.InteractionPct {
			bws = append(bws, gb)
		}
		break
	}
	sort.Ints(bws)
	fmt.Fprintf(w, "  %-8s", "bench")
	for _, gb := range bws {
		fmt.Fprintf(w, " %7dGB", gb)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		if r.Failed != "" {
			fmt.Fprintf(w, "  %-8s %s\n", r.Benchmark, failedCell(r.Failed))
			continue
		}
		fmt.Fprintf(w, "  %-8s", r.Benchmark)
		for _, gb := range bws {
			fmt.Fprintf(w, " %+8.1f%%", r.InteractionPct[gb])
		}
		fmt.Fprintln(w)
	}
}

// CoreSweep prints a Figure 1 / Figure 12 panel.
func CoreSweep(w io.Writer, title string, rows []core.CoreSweepRow) {
	fmt.Fprintf(w, "%s: improvement (%%) over same-core-count base\n", title)
	fmt.Fprintf(w, "  %5s %9s %10s %9s %9s %10s\n", "cores", "pf", "adaptive", "compr", "pf+compr", "ad+compr")
	for _, r := range rows {
		if r.Failed != "" {
			fmt.Fprintf(w, "  %5d %s\n", r.Cores, failedCell(r.Failed))
			continue
		}
		fmt.Fprintf(w, "  %5d %+8.1f%% %+9.1f%% %+8.1f%% %+8.1f%% %+9.1f%%\n",
			r.Cores, r.PrefPct, r.AdaptivePct, r.ComprPct, r.BothPct, r.AdBothPct)
	}
}

// CodecTable prints the codec bakeoff: Table 5's terms per registered
// codec, plus the interaction at the constrained-bandwidth point.
func CodecTable(w io.Writer, rows []core.CodecRow) {
	fmt.Fprintf(w, "Codec bakeoff: Table 5 terms per codec (%%), interaction also at %d GB/s\n",
		core.CodecStudyBandwidthGBps)
	fmt.Fprintf(w, "  %-6s %-8s %8s %8s %8s %12s %12s\n",
		"codec", "bench", "pref", "compr", "both", "interaction", "inter@bw")
	for _, r := range rows {
		if r.Failed != "" {
			fmt.Fprintf(w, "  %-6s %-8s %s\n", r.Codec, r.Benchmark, failedCell(r.Failed))
			continue
		}
		fmt.Fprintf(w, "  %-6s %-8s %+7.1f%% %+7.1f%% %+7.1f%% %+11.1f%% %+11.1f%%\n",
			r.Codec, r.Benchmark, r.PrefPct, r.ComprPct, r.BothPct,
			r.InteractionPct, r.InteractionAtBWPct)
	}
}

// IrregularTable prints the irregular-suite study: Figure 6 / Table 5
// terms per (benchmark, prefetch engine) over the linked-data-structure
// workloads.
func IrregularTable(w io.Writer, rows []core.IrregularRow) {
	fmt.Fprintln(w, "Irregular suite: speedups (%) per prefetch engine, interaction per EQ 5")
	fmt.Fprintf(w, "  %-9s %-10s %8s %9s %8s %8s %9s %12s\n",
		"bench", "prefetcher", "pref", "adaptive", "compr", "both", "ad+compr", "interaction")
	for _, r := range rows {
		if r.Failed != "" {
			fmt.Fprintf(w, "  %-9s %-10s %s\n", r.Benchmark, r.Prefetcher, failedCell(r.Failed))
			continue
		}
		fmt.Fprintf(w, "  %-9s %-10s %+7.1f%% %+8.1f%% %+7.1f%% %+7.1f%% %+8.1f%% %+11.1f%%\n",
			r.Benchmark, r.Prefetcher, r.PrefPct, r.AdaptivePct, r.ComprPct,
			r.BothPct, r.AdaptiveBothPct, r.InteractionPct)
	}
}

// Ablations prints the design-choice ablations: each variant's speedup
// over its benchmark's base, the paper's setting starred.
func Ablations(w io.Writer, rows []core.AblationRow) {
	fmt.Fprintln(w, "Ablations: speedup (%) over each benchmark's base; * = the paper's setting")
	fmt.Fprintf(w, "  %-13s %-6s %-11s %8s\n", "ablation", "bench", "variant", "speedup")
	for _, r := range rows {
		v := r.Variant
		if r.Paper {
			v += "*"
		}
		if r.Failed != "" {
			fmt.Fprintf(w, "  %-13s %-6s %-11s %s\n", r.Ablation, r.Benchmark, v, failedCell(r.Failed))
			continue
		}
		fmt.Fprintf(w, "  %-13s %-6s %-11s %+7.1f%%\n", r.Ablation, r.Benchmark, v, r.SpeedupPct)
	}
}
