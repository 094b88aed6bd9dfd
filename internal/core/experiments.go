package core

import (
	"errors"

	"cmpsim/internal/codec"
	"cmpsim/internal/coherence"
	"cmpsim/internal/prefetch"
	"cmpsim/internal/sim"
	"cmpsim/internal/stats"
)

// Every study driver is a Scheduler method and follows the same
// submit-then-collect pattern: all of a study's data points are
// submitted first (fanning seed-level jobs over the worker pool,
// deduplicated against the point cache), then collected in paper order.
// Rows are therefore emitted in the same order, with bit-identical
// metrics, as serial drivers would. Studies run on one scheduler share
// its cache: Table 3, Figure 3 and Figure 5 all read CompressionStudy's
// points, and Figure 7 and Table 5 InteractionStudy's, so a second
// request for a study costs no simulation.
//
// Studies degrade gracefully: a failed point (panic, watchdog timeout,
// simulation error, invalid request) does not abort the study — the
// affected row carries the failure reason in its Failed field, renders
// as a FAILED(reason) cell in internal/report, and leaves every other
// row bit-identical to a fault-free run.

// await resolves a row's futures in submit order. It always waits for
// every future (so scheduler accounting stays deterministic) and
// returns the points plus the first failure's reason, "" when the whole
// row succeeded.
func await(fs ...*PointFuture) ([]Point, string) {
	pts := make([]Point, len(fs))
	failed := ""
	for i, f := range fs {
		p, err := f.Wait()
		if err != nil && failed == "" {
			failed = failureReason(err)
		}
		pts[i] = p
	}
	return pts, failed
}

// failureReason compresses a point error into the short form FAILED
// cells print.
func failureReason(err error) string {
	var pe *PointError
	if errors.As(err, &pe) {
		return pe.Cell()
	}
	return err.Error()
}

// CompressionRow is one benchmark's compression study results:
// Table 3 (ratio), Figure 3 (miss-rate reduction) and Figure 5
// (speedups of the three compression configurations).
type CompressionRow struct {
	Benchmark        string
	Ratio            float64 // Table 3: effective / physical cache size
	BaseMissPerKI    float64
	ComprMissPerKI   float64
	MissReductionPct float64 // Figure 3
	SpeedupCachePct  float64 // Figure 5: cache compression only
	SpeedupLinkPct   float64 // Figure 5: link compression only
	SpeedupBothPct   float64 // Figure 5: both
	Failed           string  `json:",omitempty"` // non-empty: the row failed for this reason
}

// CompressionStudy regenerates Table 3, Figure 3 and Figure 5.
func (s *Scheduler) CompressionStudy(benchmarks []string, o Options) []CompressionRow {
	type futures struct{ base, cc, lc, both *PointFuture }
	subs := make([]futures, len(benchmarks))
	for i, b := range benchmarks {
		subs[i] = futures{
			base: s.Submit(b, Base, o),
			cc:   s.Submit(b, CacheCompr, o),
			lc:   s.Submit(b, LinkCompr, o),
			both: s.Submit(b, Compression, o),
		}
	}
	rows := make([]CompressionRow, 0, len(benchmarks))
	for i, b := range benchmarks {
		pts, failed := await(subs[i].base, subs[i].cc, subs[i].lc, subs[i].both)
		if failed != "" {
			rows = append(rows, CompressionRow{Benchmark: b, Failed: failed})
			continue
		}
		base, cc, lc, both := pts[0], pts[1], pts[2], pts[3]
		rows = append(rows, CompressionRow{
			Benchmark:        b,
			Ratio:            cc.Mean(func(m *sim.Metrics) float64 { return m.CompressionRatio }),
			BaseMissPerKI:    base.Mean(func(m *sim.Metrics) float64 { return m.L2MissesPerKI }),
			ComprMissPerKI:   cc.Mean(func(m *sim.Metrics) float64 { return m.L2MissesPerKI }),
			MissReductionPct: missReductionPct(base, cc),
			SpeedupCachePct:  stats.SpeedupPct(Speedup(base, cc)),
			SpeedupLinkPct:   stats.SpeedupPct(Speedup(base, lc)),
			SpeedupBothPct:   stats.SpeedupPct(Speedup(base, both)),
		})
	}
	return rows
}

func missReductionPct(base, enh Point) float64 {
	b := base.Mean(func(m *sim.Metrics) float64 { return m.L2MissesPerKI })
	e := enh.Mean(func(m *sim.Metrics) float64 { return m.L2MissesPerKI })
	if b == 0 {
		return 0
	}
	return (b - e) / b * 100
}

// BandwidthRow is one benchmark's Figure 4 row: pin-bandwidth demand in
// GB/s under the four compression configurations (infinite pins).
type BandwidthRow struct {
	Benchmark string
	None      float64
	CacheOnly float64
	LinkOnly  float64
	Both      float64
	Failed    string `json:",omitempty"`
}

// BandwidthStudy regenerates Figure 4. It forces infinite pin bandwidth
// (the paper's demand definition).
func (s *Scheduler) BandwidthStudy(benchmarks []string, o Options) []BandwidthRow {
	o.BandwidthGBps = 0
	type futures struct{ none, cache, link, both *PointFuture }
	subs := make([]futures, len(benchmarks))
	for i, b := range benchmarks {
		subs[i] = futures{
			none:  s.Submit(b, Base, o),
			cache: s.Submit(b, CacheCompr, o),
			link:  s.Submit(b, LinkCompr, o),
			both:  s.Submit(b, Compression, o),
		}
	}
	bw := func(p Point) float64 {
		return p.Mean(func(m *sim.Metrics) float64 { return m.BandwidthGBps })
	}
	rows := make([]BandwidthRow, 0, len(benchmarks))
	for i, b := range benchmarks {
		pts, failed := await(subs[i].none, subs[i].cache, subs[i].link, subs[i].both)
		if failed != "" {
			rows = append(rows, BandwidthRow{Benchmark: b, Failed: failed})
			continue
		}
		rows = append(rows, BandwidthRow{
			Benchmark: b,
			None:      bw(pts[0]),
			CacheOnly: bw(pts[1]),
			LinkOnly:  bw(pts[2]),
			Both:      bw(pts[3]),
		})
	}
	return rows
}

// PrefetchPropsRow is one benchmark's Table 4 row: rate, coverage and
// accuracy of the three prefetcher classes.
type PrefetchPropsRow struct {
	Benchmark string
	L1I       PrefetcherProps
	L1D       PrefetcherProps
	L2        PrefetcherProps
	Failed    string `json:",omitempty"`
}

// PrefetcherProps is EQ 2-4 for one engine class.
type PrefetcherProps struct {
	RatePer1000 float64
	CoveragePct float64
	AccuracyPct float64
}

// PrefetchProperties regenerates Table 4 (prefetching on, compression
// off, as in the paper's §4.3).
func (s *Scheduler) PrefetchProperties(benchmarks []string, o Options) []PrefetchPropsRow {
	subs := make([]*PointFuture, len(benchmarks))
	for i, b := range benchmarks {
		subs[i] = s.Submit(b, Prefetch, o)
	}
	rows := make([]PrefetchPropsRow, 0, len(benchmarks))
	for i, b := range benchmarks {
		pts, failed := await(subs[i])
		if failed != "" {
			rows = append(rows, PrefetchPropsRow{Benchmark: b, Failed: failed})
			continue
		}
		p := pts[0]
		props := func(src coherence.PfSource) PrefetcherProps {
			var pr PrefetcherProps
			for i := range p.Runs {
				e := p.Runs[i].Engine(src)
				pr.RatePer1000 += e.RatePer1000(p.Runs[i].Instructions)
				pr.CoveragePct += e.Coverage() * 100
				pr.AccuracyPct += e.Accuracy() * 100
			}
			n := float64(len(p.Runs))
			pr.RatePer1000 /= n
			pr.CoveragePct /= n
			pr.AccuracyPct /= n
			return pr
		}
		rows = append(rows, PrefetchPropsRow{
			Benchmark: b,
			L1I:       props(coherence.PfL1I),
			L1D:       props(coherence.PfL1D),
			L2:        props(coherence.PfL2),
		})
	}
	return rows
}

// PrefetchSpeedupRow is one benchmark's Figure 6 row.
type PrefetchSpeedupRow struct {
	Benchmark          string
	SpeedupPct         float64 // base stride prefetching
	AdaptiveSpeedupPct float64
	Failed             string `json:",omitempty"`
}

// PrefetchStudy regenerates Figure 6.
func (s *Scheduler) PrefetchStudy(benchmarks []string, o Options) []PrefetchSpeedupRow {
	type futures struct{ base, pf, ad *PointFuture }
	subs := make([]futures, len(benchmarks))
	for i, b := range benchmarks {
		subs[i] = futures{
			base: s.Submit(b, Base, o),
			pf:   s.Submit(b, Prefetch, o),
			ad:   s.Submit(b, AdaptivePf, o),
		}
	}
	rows := make([]PrefetchSpeedupRow, 0, len(benchmarks))
	for i, b := range benchmarks {
		pts, failed := await(subs[i].base, subs[i].pf, subs[i].ad)
		if failed != "" {
			rows = append(rows, PrefetchSpeedupRow{Benchmark: b, Failed: failed})
			continue
		}
		rows = append(rows, PrefetchSpeedupRow{
			Benchmark:          b,
			SpeedupPct:         stats.SpeedupPct(Speedup(pts[0], pts[1])),
			AdaptiveSpeedupPct: stats.SpeedupPct(Speedup(pts[0], pts[2])),
		})
	}
	return rows
}

// InteractionRow is one benchmark's Table 5 / Figure 9 row.
type InteractionRow struct {
	Benchmark            string
	PrefPct              float64 // Speedup(Pref.) − 1
	ComprPct             float64 // Speedup(Compr.) − 1
	BothPct              float64 // Speedup(Pref., Compr.) − 1
	AdaptiveBothPct      float64 // Speedup(Adaptive-Pref, Compr.) − 1
	InteractionPct       float64 // EQ 5
	BWBasePrefGrowthPct  float64 // Figure 7: demand growth of pf alone
	BWComprPrefGrowthPct float64 // Figure 7: demand growth of pf+compr
	Failed               string  `json:",omitempty"`
}

// InteractionStudy regenerates Table 5, Figure 9 and the Figure 7 demand
// ratios (the latter on infinite pins).
func (s *Scheduler) InteractionStudy(benchmarks []string, o Options) []InteractionRow {
	oInf := o
	oInf.BandwidthGBps = 0 // Figure 7 bandwidth demand, infinite pins
	type futures struct {
		base, pf, compr, both, adBoth *PointFuture
		bwBase, bwPf, bwBoth          *PointFuture
	}
	subs := make([]futures, len(benchmarks))
	for i, b := range benchmarks {
		subs[i] = futures{
			base:   s.Submit(b, Base, o),
			pf:     s.Submit(b, Prefetch, o),
			compr:  s.Submit(b, Compression, o),
			both:   s.Submit(b, PrefCompr, o),
			adBoth: s.Submit(b, AdaptiveCompr, o),
			bwBase: s.Submit(b, Base, oInf),
			bwPf:   s.Submit(b, Prefetch, oInf),
			bwBoth: s.Submit(b, PrefCompr, oInf),
		}
	}
	bw := func(p Point) float64 {
		return p.Mean(func(m *sim.Metrics) float64 { return m.BandwidthGBps })
	}
	rows := make([]InteractionRow, 0, len(benchmarks))
	for i, b := range benchmarks {
		pts, failed := await(subs[i].base, subs[i].pf, subs[i].compr, subs[i].both,
			subs[i].adBoth, subs[i].bwBase, subs[i].bwPf, subs[i].bwBoth)
		if failed != "" {
			rows = append(rows, InteractionRow{Benchmark: b, Failed: failed})
			continue
		}
		base := pts[0]
		sp := Speedup(base, pts[1])
		sc := Speedup(base, pts[2])
		sb := Speedup(base, pts[3])

		row := InteractionRow{
			Benchmark:       b,
			PrefPct:         stats.SpeedupPct(sp),
			ComprPct:        stats.SpeedupPct(sc),
			BothPct:         stats.SpeedupPct(sb),
			AdaptiveBothPct: stats.SpeedupPct(Speedup(base, pts[4])),
			InteractionPct:  stats.InteractionPct(sp, sc, sb),
		}
		if bwBase := bw(pts[5]); bwBase > 0 {
			row.BWBasePrefGrowthPct = (bw(pts[6])/bwBase - 1) * 100
			row.BWComprPrefGrowthPct = (bw(pts[7])/bwBase - 1) * 100
		}
		rows = append(rows, row)
	}
	return rows
}

// AdaptiveRow is one commercial benchmark's Figure 10 row.
type AdaptiveRow struct {
	Benchmark        string
	PrefPct          float64
	AdaptivePct      float64
	PrefComprPct     float64
	AdaptiveComprPct float64
	Failed           string `json:",omitempty"`
}

// AdaptiveStudy regenerates Figure 10 (the paper shows the commercial
// workloads, where adaptation matters).
func (s *Scheduler) AdaptiveStudy(benchmarks []string, o Options) []AdaptiveRow {
	mechs := []Mechanisms{Prefetch, AdaptivePf, PrefCompr, AdaptiveCompr}
	type futures struct {
		base *PointFuture
		enh  [4]*PointFuture
	}
	subs := make([]futures, len(benchmarks))
	for i, b := range benchmarks {
		subs[i].base = s.Submit(b, Base, o)
		for j, m := range mechs {
			subs[i].enh[j] = s.Submit(b, m, o)
		}
	}
	rows := make([]AdaptiveRow, 0, len(benchmarks))
	for i, b := range benchmarks {
		pts, failed := await(subs[i].base, subs[i].enh[0], subs[i].enh[1], subs[i].enh[2], subs[i].enh[3])
		if failed != "" {
			rows = append(rows, AdaptiveRow{Benchmark: b, Failed: failed})
			continue
		}
		base := pts[0]
		sp := func(j int) float64 {
			return stats.SpeedupPct(Speedup(base, pts[1+j]))
		}
		rows = append(rows, AdaptiveRow{
			Benchmark:        b,
			PrefPct:          sp(0),
			AdaptivePct:      sp(1),
			PrefComprPct:     sp(2),
			AdaptiveComprPct: sp(3),
		})
	}
	return rows
}

// MissClassRow is one benchmark's Figure 8 breakdown, as percentages of
// the baseline's total demand misses.
type MissClassRow struct {
	Benchmark      string
	NotAvoidedPct  float64 // demand misses neither mechanism avoids
	OnlyComprPct   float64 // avoided only by L2 compression
	OnlyPrefPct    float64 // avoided only by L2 prefetching
	EitherPct      float64 // avoidable by either (the overlap)
	PrefFetchPct   float64 // prefetch fetches not avoided by compression
	PrefAvoidedPct float64 // prefetch fetches avoided by compression
	Failed         string  `json:",omitempty"`
}

// MissClassification regenerates Figure 8 using per-block miss profiles
// of the base, compression-only, prefetch-only and combined runs and
// inclusion–exclusion, as the paper describes.
func (s *Scheduler) MissClassification(benchmarks []string, o Options) []MissClassRow {
	o.CollectMissProfile = true
	o.Seeds = 1
	type futures struct{ base, compr, pf, both *PointFuture }
	subs := make([]futures, len(benchmarks))
	for i, b := range benchmarks {
		subs[i] = futures{
			base:  s.Submit(b, Base, o),
			compr: s.Submit(b, CacheCompr, o),
			pf:    s.Submit(b, Prefetch, o),
			both:  s.Submit(b, PrefCompr, o),
		}
	}
	rows := make([]MissClassRow, 0, len(benchmarks))
	for i, b := range benchmarks {
		pts, failed := await(subs[i].base, subs[i].compr, subs[i].pf, subs[i].both)
		if failed != "" {
			rows = append(rows, MissClassRow{Benchmark: b, Failed: failed})
			continue
		}
		base := pts[0].Runs[0]
		compr := pts[1].Runs[0]
		pf := pts[2].Runs[0]
		both := pts[3].Runs[0]

		var total, onlyC, onlyP, either float64
		for blk, m0 := range base.MissProfile {
			total += float64(m0)
			ac := avoided(m0, compr.MissProfile[blk])
			ap := avoided(m0, pf.MissProfile[blk])
			inter := ac
			if ap < inter {
				inter = ap
			}
			onlyC += ac - inter
			onlyP += ap - inter
			either += inter
		}
		if total == 0 {
			rows = append(rows, MissClassRow{Benchmark: b})
			continue
		}
		// Prefetch fetches = memory fetches beyond demand misses.
		pfFetches := float64(pf.MemFetches) - float64(pf.L2Misses)
		pfFetchesBoth := float64(both.MemFetches) - float64(both.L2Misses)
		avoidedPf := pfFetches - pfFetchesBoth
		if avoidedPf < 0 {
			avoidedPf = 0
		}
		rows = append(rows, MissClassRow{
			Benchmark:      b,
			NotAvoidedPct:  (total - onlyC - onlyP - either) / total * 100,
			OnlyComprPct:   onlyC / total * 100,
			OnlyPrefPct:    onlyP / total * 100,
			EitherPct:      either / total * 100,
			PrefFetchPct:   pfFetchesBoth / total * 100,
			PrefAvoidedPct: avoidedPf / total * 100,
		})
	}
	return rows
}

func avoided(base, enh uint32) float64 {
	if enh >= base {
		return 0
	}
	return float64(base - enh)
}

// BandwidthSweepRow is one benchmark's Figure 11 row: the interaction
// term at each available pin bandwidth.
type BandwidthSweepRow struct {
	Benchmark      string
	InteractionPct map[int]float64 // GB/s -> interaction %
	Failed         string          `json:",omitempty"`
}

// BandwidthSweep regenerates Figure 11 (10-80 GB/s).
func (s *Scheduler) BandwidthSweep(benchmarks []string, bandwidths []int, o Options) []BandwidthSweepRow {
	type futures struct{ base, pf, compr, both *PointFuture }
	subs := make([][]futures, len(benchmarks))
	for i, b := range benchmarks {
		subs[i] = make([]futures, len(bandwidths))
		for j, gb := range bandwidths {
			ob := o
			ob.BandwidthGBps = float64(gb)
			subs[i][j] = futures{
				base:  s.Submit(b, Base, ob),
				pf:    s.Submit(b, Prefetch, ob),
				compr: s.Submit(b, Compression, ob),
				both:  s.Submit(b, PrefCompr, ob),
			}
		}
	}
	rows := make([]BandwidthSweepRow, 0, len(benchmarks))
	for i, b := range benchmarks {
		row := BandwidthSweepRow{Benchmark: b, InteractionPct: map[int]float64{}}
		for j, gb := range bandwidths {
			pts, failed := await(subs[i][j].base, subs[i][j].pf, subs[i][j].compr, subs[i][j].both)
			if failed != "" && row.Failed == "" {
				row.Failed = failed
			}
			if row.Failed != "" {
				continue
			}
			sp := Speedup(pts[0], pts[1])
			sc := Speedup(pts[0], pts[2])
			sb := Speedup(pts[0], pts[3])
			row.InteractionPct[gb] = stats.InteractionPct(sp, sc, sb)
		}
		if row.Failed != "" {
			row.InteractionPct = nil
		}
		rows = append(rows, row)
	}
	return rows
}

// CoreSweepRow is one (benchmark, core count) entry of Figures 1 and 12:
// performance improvement over the same-core-count base system.
type CoreSweepRow struct {
	Benchmark   string
	Cores       int
	PrefPct     float64
	AdaptivePct float64
	ComprPct    float64
	BothPct     float64
	AdBothPct   float64
	Failed      string `json:",omitempty"`
}

// CoreSweep regenerates Figure 1 (zeus) and Figure 12 (apache, jbb):
// the mechanisms' improvements as the core count scales, all other
// parameters fixed.
func (s *Scheduler) CoreSweep(bench string, coreCounts []int, o Options) []CoreSweepRow {
	mechs := []Mechanisms{Prefetch, AdaptivePf, Compression, PrefCompr, AdaptiveCompr}
	type futures struct {
		base *PointFuture
		enh  [5]*PointFuture
	}
	subs := make([]futures, len(coreCounts))
	for i, n := range coreCounts {
		on := o
		on.Cores = n
		subs[i].base = s.Submit(bench, Base, on)
		for j, m := range mechs {
			subs[i].enh[j] = s.Submit(bench, m, on)
		}
	}
	rows := make([]CoreSweepRow, 0, len(coreCounts))
	for i, n := range coreCounts {
		pts, failed := await(subs[i].base, subs[i].enh[0], subs[i].enh[1],
			subs[i].enh[2], subs[i].enh[3], subs[i].enh[4])
		if failed != "" {
			rows = append(rows, CoreSweepRow{Benchmark: bench, Cores: n, Failed: failed})
			continue
		}
		base := pts[0]
		sp := func(j int) float64 {
			return stats.SpeedupPct(Speedup(base, pts[1+j]))
		}
		rows = append(rows, CoreSweepRow{
			Benchmark:   bench,
			Cores:       n,
			PrefPct:     sp(0),
			AdaptivePct: sp(1),
			ComprPct:    sp(2),
			BothPct:     sp(3),
			AdBothPct:   sp(4),
		})
	}
	return rows
}

// CodecRow is one (codec, benchmark) entry of the codec bakeoff: the
// Table 5 interaction terms re-run with a different line-compression
// algorithm in the L2, plus the interaction at the most contended point
// of the Figure 11 sweep, where the codecs' ratio and decompression
// latency trade off most visibly.
type CodecRow struct {
	Codec              string
	Benchmark          string
	PrefPct            float64 // Speedup(Pref.) − 1
	ComprPct           float64 // Speedup(Compr.) − 1
	BothPct            float64 // Speedup(Pref., Compr.) − 1
	InteractionPct     float64 // EQ 5 at the study's default bandwidth
	InteractionAtBWPct float64 // EQ 5 at CodecStudyBandwidthGBps
	Failed             string  `json:",omitempty"`
}

// CodecStudyBandwidthGBps is the constrained-bandwidth column of the
// codec study: the left edge of the Figure 11 sweep, where compression
// buys the most and slow decompression hurts the most.
const CodecStudyBandwidthGBps = 10

// CodecStudy re-runs the Table 5 speedup/interaction terms once per
// registered codec, each at its own default decompression latency
// (unless o pins one explicitly). The uncompressed baseline exercises
// no codec, so every codec's speedups are measured against the same
// shared Base point per (benchmark, bandwidth).
func (s *Scheduler) CodecStudy(benchmarks []string, o Options) []CodecRow {
	names := codec.Names()
	oBW := o
	oBW.BandwidthGBps = CodecStudyBandwidthGBps
	type futures struct {
		base, pf, compr, both         *PointFuture
		bwBase, bwPf, bwCompr, bwBoth *PointFuture
	}
	subs := make([][]futures, len(names))
	for ci, name := range names {
		oc := o
		oc.Codec = name
		ocBW := oBW
		ocBW.Codec = name
		subs[ci] = make([]futures, len(benchmarks))
		for i, b := range benchmarks {
			subs[ci][i] = futures{
				// Base and Prefetch never touch the codec; submitting
				// them with the default codec lets the point cache
				// share one run across all codecs.
				base:    s.Submit(b, Base, o),
				pf:      s.Submit(b, Prefetch, o),
				compr:   s.Submit(b, Compression, oc),
				both:    s.Submit(b, PrefCompr, oc),
				bwBase:  s.Submit(b, Base, oBW),
				bwPf:    s.Submit(b, Prefetch, oBW),
				bwCompr: s.Submit(b, Compression, ocBW),
				bwBoth:  s.Submit(b, PrefCompr, ocBW),
			}
		}
	}
	rows := make([]CodecRow, 0, len(names)*len(benchmarks))
	for ci, name := range names {
		for i, b := range benchmarks {
			f := subs[ci][i]
			pts, failed := await(f.base, f.pf, f.compr, f.both,
				f.bwBase, f.bwPf, f.bwCompr, f.bwBoth)
			if failed != "" {
				rows = append(rows, CodecRow{Codec: name, Benchmark: b, Failed: failed})
				continue
			}
			sp := Speedup(pts[0], pts[1])
			sc := Speedup(pts[0], pts[2])
			sb := Speedup(pts[0], pts[3])
			rows = append(rows, CodecRow{
				Codec:          name,
				Benchmark:      b,
				PrefPct:        stats.SpeedupPct(sp),
				ComprPct:       stats.SpeedupPct(sc),
				BothPct:        stats.SpeedupPct(sb),
				InteractionPct: stats.InteractionPct(sp, sc, sb),
				InteractionAtBWPct: stats.InteractionPct(
					Speedup(pts[4], pts[5]), Speedup(pts[4], pts[6]), Speedup(pts[4], pts[7])),
			})
		}
	}
	return rows
}

// IrregularRow is one (benchmark, prefetcher) entry of the irregular
// study: the Figure 6 / Table 5 speedup and interaction terms re-run
// over the linked-data-structure suite, once per registered prefetch
// engine. It answers the question the paper's strided suite cannot:
// which engine family still earns its bandwidth when addresses are
// data-dependent, and whether compression's freed bandwidth still
// amplifies it (positive interaction) or only masks its waste.
type IrregularRow struct {
	Benchmark       string
	Prefetcher      string
	PrefPct         float64 // Speedup(Pref.) − 1
	AdaptivePct     float64 // Speedup(Adaptive Pref.) − 1
	ComprPct        float64 // Speedup(Compr.) − 1
	BothPct         float64 // Speedup(Pref., Compr.) − 1
	AdaptiveBothPct float64 // Speedup(Adaptive Pref., Compr.) − 1
	InteractionPct  float64 // EQ 5 over the non-adaptive terms
	Failed          string  `json:",omitempty"`
}

// IrregularStudy runs the irregular suite (or any benchmark list) over
// every registered prefetcher. Base and Compression never touch the
// prefetch engine, so they are submitted with the request's own kind
// and shared across all engines through the point cache.
func (s *Scheduler) IrregularStudy(benchmarks []string, o Options) []IrregularRow {
	kinds := prefetch.Names()
	type futures struct {
		base, compr, pf, adpf, both, adboth *PointFuture
	}
	subs := make([][]futures, len(benchmarks))
	for i, b := range benchmarks {
		subs[i] = make([]futures, len(kinds))
		for ki, kind := range kinds {
			ok := o
			ok.PrefetcherKind = kind
			subs[i][ki] = futures{
				base:   s.Submit(b, Base, o),
				compr:  s.Submit(b, Compression, o),
				pf:     s.Submit(b, Prefetch, ok),
				adpf:   s.Submit(b, AdaptivePf, ok),
				both:   s.Submit(b, PrefCompr, ok),
				adboth: s.Submit(b, AdaptiveCompr, ok),
			}
		}
	}
	rows := make([]IrregularRow, 0, len(benchmarks)*len(kinds))
	for i, b := range benchmarks {
		for ki, kind := range kinds {
			f := subs[i][ki]
			pts, failed := await(f.base, f.compr, f.pf, f.adpf, f.both, f.adboth)
			if failed != "" {
				rows = append(rows, IrregularRow{Benchmark: b, Prefetcher: kind, Failed: failed})
				continue
			}
			sp := Speedup(pts[0], pts[2])
			sc := Speedup(pts[0], pts[1])
			sb := Speedup(pts[0], pts[4])
			rows = append(rows, IrregularRow{
				Benchmark:       b,
				Prefetcher:      kind,
				PrefPct:         stats.SpeedupPct(sp),
				AdaptivePct:     stats.SpeedupPct(Speedup(pts[0], pts[3])),
				ComprPct:        stats.SpeedupPct(sc),
				BothPct:         stats.SpeedupPct(sb),
				AdaptiveBothPct: stats.SpeedupPct(Speedup(pts[0], pts[5])),
				InteractionPct:  stats.InteractionPct(sp, sc, sb),
			})
		}
	}
	return rows
}

// AblationRow is one variant of an ablation of a design choice the
// paper argues for (DESIGN.md §4): the variant's speedup over its
// benchmark's Base point.
type AblationRow struct {
	Ablation   string
	Benchmark  string
	Variant    string
	Paper      bool    // the variant is the paper's setting
	SpeedupPct float64 // over Base at the study's options
	Failed     string  `json:",omitempty"`
}

// ablationVariant is one side of an ablation: the mechanisms it runs
// and the override it applies to the study's options (nil for none).
type ablationVariant struct {
	label string
	paper bool
	mech  Mechanisms
	set   func(*Options)
}

// decompression overrides the decompression latency.
func decompression(cycles float64) func(*Options) {
	return func(o *Options) { o.DecompressionCycles, o.DecompressionSet = cycles, true }
}

// ablations are the study's ablations in report order, each on the
// benchmark where its choice shows. A paper-setting variant applies no
// override, or only one the point key canonicalizes away (the default
// engine's name), so it shares the point Figure 6, Figure 10 or Table 5
// already simulates instead of running again under an explicit-default
// key.
var ablations = []struct {
	name, bench string
	variants    []ablationVariant
}{
	// The adaptive prefetcher's harmful-prefetch detection reads victim
	// tags; without them it sees only useful and useless prefetches.
	{"victim-tags", "jbb", []ablationVariant{
		{"on", true, AdaptivePf, nil},
		{"off", false, AdaptivePf, func(o *Options) { o.UncompressedVictimTags = -1 }},
	}},
	{"l2-depth", "zeus", []ablationVariant{
		{"5", false, Prefetch, func(o *Options) { o.L2PrefetchDepth = 5 }},
		{"25", true, Prefetch, nil},
	}},
	{"decompression", "jbb", []ablationVariant{
		{"0 cycles", false, Compression, decompression(0)},
		{"5 cycles", true, Compression, nil},
		{"20 cycles", false, Compression, decompression(20)},
	}},
	{"l2-tags", "jbb", []ablationVariant{
		{"8", true, Compression, nil},
		{"16", false, Compression, func(o *Options) { o.L2TagsPerSet = 16 }},
	}},
	// A tagged sequential prefetcher cannot follow mgrid's non-unit
	// strides.
	{"engine", "mgrid", []ablationVariant{
		{prefetch.DefaultName, true, Prefetch, func(o *Options) { o.PrefetcherKind = prefetch.DefaultName }},
		{"sequential", false, Prefetch, func(o *Options) { o.PrefetcherKind = "sequential" }},
	}},
	{"adaptive", "zeus", []ablationVariant{
		{"off", false, Prefetch, nil},
		{"on", false, AdaptivePf, nil},
	}},
}

// AblationStudy runs the design-choice ablations at o. Each ablation
// pins its own benchmark, so the study takes no benchmark list.
func (s *Scheduler) AblationStudy(o Options) []AblationRow {
	var rows []AblationRow
	var subs [][2]*PointFuture
	for _, a := range ablations {
		for _, v := range a.variants {
			ov := o
			if v.set != nil {
				v.set(&ov)
			}
			subs = append(subs, [2]*PointFuture{s.Submit(a.bench, Base, o), s.Submit(a.bench, v.mech, ov)})
			rows = append(rows, AblationRow{Ablation: a.name, Benchmark: a.bench, Variant: v.label, Paper: v.paper})
		}
	}
	for i := range rows {
		pts, failed := await(subs[i][0], subs[i][1])
		if failed != "" {
			rows[i].Failed = failed
			continue
		}
		rows[i].SpeedupPct = stats.SpeedupPct(Speedup(pts[0], pts[1]))
	}
	return rows
}
