// Benchmarks regenerating the paper's tables and figures, one per
// exhibit, plus ablations of the design choices called out in DESIGN.md.
//
// Each benchmark runs its experiment driver on a scaled-down system
// (4 cores, 2 MB L2, short warmup) so `go test -bench=.` completes in
// minutes; cmd/experiments runs the same drivers at paper scale. The
// key headline numbers are attached with b.ReportMetric so bench output
// doubles as a compact results table.
package cmpsim_test

import (
	"testing"

	"cmpsim/internal/core"
)

// exhibits is the scheduler every exhibit benchmark submits to, one
// worker per CPU, living as long as the test binary. Its memoized point
// cache is shared across exhibits, exactly as cmd/experiments shares one
// scheduler across studies — so e.g. the compression benches reuse each
// other's points, and rerunning a bench (b.N > 1) measures the cache,
// not the simulator.
var exhibits = core.NewScheduler(0)

// point runs one data point on the exhibit scheduler.
func point(bench string, m core.Mechanisms, o core.Options) core.Point {
	p, err := exhibits.Submit(bench, m, o).Wait()
	if err != nil {
		panic(err)
	}
	return p
}

// benchOptions is the scaled-down system all exhibit benchmarks use.
func benchOptions() core.Options {
	return core.Options{
		Cores:         4,
		Seeds:         1,
		Warmup:        300_000,
		Measure:       150_000,
		BandwidthGBps: 10, // half the pins for half the cores
		L2MB:          2,
	}
}

// The scheduler benchmarks run the same study on private, empty caches
// so the serial/parallel wall-clock ratio measures true fan-out speedup
// (the acceptance comparison), uncontaminated by cross-bench caching.

func BenchmarkSchedulerSerial(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		s := core.NewScheduler(1)
		s.CompressionStudy(core.CommercialBenchmarks(), o)
		s.Close()
	}
}

func BenchmarkSchedulerParallel(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		s := core.NewScheduler(0)
		s.CompressionStudy(core.CommercialBenchmarks(), o)
		s.Close()
	}
}

func BenchmarkTable3CompressionRatios(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		rows := exhibits.CompressionStudy(core.Benchmarks(), o)
		for _, r := range rows {
			if r.Benchmark == "jbb" {
				b.ReportMetric(r.Ratio, "jbb-ratio")
			}
			if r.Benchmark == "apsi" {
				b.ReportMetric(r.Ratio, "apsi-ratio")
			}
		}
	}
}

func BenchmarkFig3MissRateReduction(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		rows := exhibits.CompressionStudy(core.CommercialBenchmarks(), o)
		for _, r := range rows {
			if r.Benchmark == "apache" {
				b.ReportMetric(r.MissReductionPct, "apache-missred-%")
			}
		}
	}
}

func BenchmarkFig4BandwidthDemand(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		rows := exhibits.BandwidthStudy(core.Benchmarks(), o)
		for _, r := range rows {
			if r.Benchmark == "fma3d" {
				b.ReportMetric(r.None, "fma3d-GBps")
				if r.None > 0 {
					b.ReportMetric((1-r.Both/r.None)*100, "fma3d-linkred-%")
				}
			}
		}
	}
}

func BenchmarkFig5CompressionSpeedup(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		rows := exhibits.CompressionStudy(core.CommercialBenchmarks(), o)
		for _, r := range rows {
			if r.Benchmark == "zeus" {
				b.ReportMetric(r.SpeedupBothPct, "zeus-compr-%")
			}
		}
	}
}

func BenchmarkTable4PrefetchProperties(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		rows := exhibits.PrefetchProperties([]string{"zeus", "mgrid"}, o)
		for _, r := range rows {
			if r.Benchmark == "mgrid" {
				b.ReportMetric(r.L2.AccuracyPct, "mgrid-L2acc-%")
				b.ReportMetric(r.L1D.CoveragePct, "mgrid-L1Dcov-%")
			}
		}
	}
}

func BenchmarkFig6PrefetchSpeedup(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		rows := exhibits.PrefetchStudy([]string{"zeus", "jbb"}, o)
		for _, r := range rows {
			switch r.Benchmark {
			case "zeus":
				b.ReportMetric(r.SpeedupPct, "zeus-pf-%")
			case "jbb":
				b.ReportMetric(r.SpeedupPct, "jbb-pf-%")
				b.ReportMetric(r.AdaptiveSpeedupPct, "jbb-adaptive-%")
			}
		}
	}
}

func BenchmarkFig7BandwidthInteraction(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		rows := exhibits.InteractionStudy([]string{"zeus"}, o)
		b.ReportMetric(rows[0].BWBasePrefGrowthPct, "zeus-pf-bwgrowth-%")
		b.ReportMetric(rows[0].BWComprPrefGrowthPct, "zeus-pfcompr-bwgrowth-%")
	}
}

func BenchmarkFig8MissClassification(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		rows := exhibits.MissClassification([]string{"apache", "mgrid"}, o)
		for _, r := range rows {
			if r.Benchmark == "apache" {
				b.ReportMetric(r.EitherPct, "apache-overlap-%")
			}
		}
	}
}

func BenchmarkTable5Interactions(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		rows := exhibits.InteractionStudy([]string{"zeus", "jbb"}, o)
		for _, r := range rows {
			switch r.Benchmark {
			case "zeus":
				b.ReportMetric(r.InteractionPct, "zeus-interaction-%")
			case "jbb":
				b.ReportMetric(r.InteractionPct, "jbb-interaction-%")
			}
		}
	}
}

func BenchmarkFig10AdaptiveSpeedup(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		rows := exhibits.AdaptiveStudy([]string{"jbb"}, o)
		b.ReportMetric(rows[0].PrefPct, "jbb-pf-%")
		b.ReportMetric(rows[0].AdaptivePct, "jbb-adaptive-%")
		b.ReportMetric(rows[0].AdaptiveComprPct, "jbb-adcompr-%")
	}
}

func BenchmarkFig11BandwidthSweep(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		rows := exhibits.BandwidthSweep([]string{"zeus"}, []int{5, 10, 40}, o)
		b.ReportMetric(rows[0].InteractionPct[5], "zeus-inter-5GB-%")
		b.ReportMetric(rows[0].InteractionPct[40], "zeus-inter-40GB-%")
	}
}

func BenchmarkFig1CoreSweepZeus(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		rows := exhibits.CoreSweep("zeus", []int{1, 8}, o)
		b.ReportMetric(rows[0].PrefPct, "pf-1core-%")
		b.ReportMetric(rows[1].PrefPct, "pf-8core-%")
	}
}

func BenchmarkFig12CoreSweep(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		rows := exhibits.CoreSweep("jbb", []int{1, 8}, o)
		b.ReportMetric(rows[0].PrefPct, "jbb-pf-1core-%")
		b.ReportMetric(rows[1].PrefPct, "jbb-pf-8core-%")
	}
}

// --- Ablations (DESIGN.md §4) ---

// BenchmarkAblationNoVictimTags removes the extra-tag victim history the
// adaptive prefetcher uses for harmful-prefetch detection.
func BenchmarkAblationNoVictimTags(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		with := point("jbb", core.AdaptivePf, o)
		o2 := o
		o2.UncompressedVictimTags = -1 // disable
		without := point("jbb", core.AdaptivePf, o2)
		b.ReportMetric(core.Speedup(without, with), "with/without-victimtags")
	}
}

// BenchmarkAblationPrefetchDepth sweeps the L2 startup depth.
func BenchmarkAblationPrefetchDepth(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		base := point("zeus", core.Base, o)
		for _, depth := range []int{5, 25} {
			od := o
			od.L2PrefetchDepth = depth
			p := point("zeus", core.Prefetch, od)
			if depth == 5 {
				b.ReportMetric((core.Speedup(base, p)-1)*100, "depth5-%")
			} else {
				b.ReportMetric((core.Speedup(base, p)-1)*100, "depth25-%")
			}
		}
	}
}

// BenchmarkAblationDecompressionPenalty sweeps the decompression
// latency to show how compression's benefit erodes.
func BenchmarkAblationDecompressionPenalty(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		base := point("jbb", core.Base, o)
		for _, pen := range []float64{0, 5, 20} {
			op := o
			op.DecompressionCycles = pen
			op.DecompressionSet = true
			p := point("jbb", core.Compression, op)
			switch pen {
			case 0:
				b.ReportMetric((core.Speedup(base, p)-1)*100, "pen0-%")
			case 5:
				b.ReportMetric((core.Speedup(base, p)-1)*100, "pen5-%")
			case 20:
				b.ReportMetric((core.Speedup(base, p)-1)*100, "pen20-%")
			}
		}
	}
}

// BenchmarkAblationTagCount compares the paper's 8-tag compressed sets
// against a 16-tag variant (more effective associativity headroom).
func BenchmarkAblationTagCount(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		base := point("jbb", core.Base, o)
		for _, tags := range []int{8, 16} {
			ot := o
			ot.L2TagsPerSet = tags
			p := point("jbb", core.Compression, ot)
			if tags == 8 {
				b.ReportMetric((core.Speedup(base, p)-1)*100, "tags8-%")
			} else {
				b.ReportMetric((core.Speedup(base, p)-1)*100, "tags16-%")
			}
		}
	}
}

// BenchmarkAblationSequentialBaseline compares the paper's stride
// prefetcher against the tagged sequential baseline: the stride engine
// must win on the non-unit-stride scientific code.
func BenchmarkAblationSequentialBaseline(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		base := point("mgrid", core.Base, o)
		stride := point("mgrid", core.Prefetch, o)
		oseq := o
		oseq.PrefetcherKind = "sequential"
		seq := point("mgrid", core.Prefetch, oseq)
		b.ReportMetric((core.Speedup(base, stride)-1)*100, "stride-%")
		b.ReportMetric((core.Speedup(base, seq)-1)*100, "sequential-%")
	}
}

// BenchmarkAblationCounterProbe compares adaptive recovery probing
// against the paper's literal absorbing-zero counter, approximated by
// the depth-1 cap (see prefetch.Engine's probe documentation).
func BenchmarkAblationCounterProbe(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		ad := point("zeus", core.AdaptivePf, o)
		pf := point("zeus", core.Prefetch, o)
		b.ReportMetric(core.Speedup(pf, ad), "adaptive/static")
	}
}
