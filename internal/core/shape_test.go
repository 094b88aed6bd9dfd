package core

import (
	"testing"

	"cmpsim/internal/sim"
)

// TestPaperShape locks in the paper's headline qualitative findings at a
// moderate scale (8 cores, 2 MB L2, shortened warmup). It is the
// regression net for the reproduction itself: if a refactor breaks one
// of these directional results, the repository no longer reproduces the
// paper. Skipped under -short.
func TestPaperShape(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-shape test is expensive")
	}
	o := Options{Cores: 8, Seeds: 1, Warmup: 1_200_000, Measure: 400_000,
		BandwidthGBps: 10, L2MB: 2}
	// One scheduler for all subtests: they re-request each other's Base
	// points, which its cache simulates once.
	s := NewScheduler(0)
	defer s.Close()
	run := func(bench string, m Mechanisms, o Options) Point {
		return s.Submit(bench, m, o).MustWait()
	}

	t.Run("CommercialCompressesSPECompDoesNot", func(t *testing.T) {
		jbb := run("jbb", CacheCompr, o)
		apsi := run("apsi", CacheCompr, o)
		jr := jbb.Mean(ratioOf)
		ar := apsi.Mean(ratioOf)
		if jr < 1.3 {
			t.Errorf("jbb ratio %.2f should be well above 1.3", jr)
		}
		if ar > 1.15 {
			t.Errorf("apsi ratio %.2f should stay near 1", ar)
		}
	})

	t.Run("CompressionHelpsCommercial", func(t *testing.T) {
		base := run("oltp", Base, o)
		compr := run("oltp", Compression, o)
		if sp := Speedup(base, compr); sp < 1.0 {
			t.Errorf("oltp compression speedup %.3f should be positive", sp)
		}
	})

	t.Run("PrefetchingHurtsJbb", func(t *testing.T) {
		base := run("jbb", Base, o)
		pf := run("jbb", Prefetch, o)
		if sp := Speedup(base, pf); sp > 1.0 {
			t.Errorf("jbb prefetch speedup %.3f should be a slowdown", sp)
		}
	})

	t.Run("AdaptiveRescuesJbb", func(t *testing.T) {
		base := run("jbb", Base, o)
		pf := run("jbb", Prefetch, o)
		ad := run("jbb", AdaptivePf, o)
		if Speedup(base, ad) <= Speedup(base, pf) {
			t.Errorf("adaptive (%.3f) should beat static prefetching (%.3f) on jbb",
				Speedup(base, ad), Speedup(base, pf))
		}
	})

	t.Run("PrefetchingHelpsScientific", func(t *testing.T) {
		// mgrid is a streaming benchmark: at the scaled-down 10 GB/s it
		// is bandwidth-saturated and prefetching cannot help, so this
		// sub-test keeps the paper's full 20 GB/s pins.
		om := o
		om.BandwidthGBps = 20
		base := run("mgrid", Base, om)
		pf := run("mgrid", Prefetch, om)
		if sp := Speedup(base, pf); sp < 1.05 {
			t.Errorf("mgrid prefetch speedup %.3f should be strong", sp)
		}
	})

	t.Run("PrefetchBenefitCollapsesWithCores", func(t *testing.T) {
		o1 := o
		o1.Cores = 1
		base1 := run("zeus", Base, o1)
		pf1 := run("zeus", Prefetch, o1)
		base8 := run("zeus", Base, o)
		pf8 := run("zeus", Prefetch, o)
		gain1 := Speedup(base1, pf1)
		gain8 := Speedup(base8, pf8)
		if gain8 >= gain1 {
			t.Errorf("prefetch gain should shrink with cores: 1p %.3f vs 8p %.3f", gain1, gain8)
		}
	})

	t.Run("LinkCompressionCutsCommercialDemand", func(t *testing.T) {
		oInf := o
		oInf.BandwidthGBps = 0
		base := run("oltp", Base, oInf)
		lc := run("oltp", LinkCompr, oInf)
		bwBase := base.Mean(bwOf)
		bwLC := lc.Mean(bwOf)
		if bwLC > bwBase*0.85 {
			t.Errorf("link compression cut oltp demand only %.1f%% (%.2f -> %.2f GB/s)",
				(1-bwLC/bwBase)*100, bwBase, bwLC)
		}
	})

	t.Run("PrefetchingInflatesDemand", func(t *testing.T) {
		oInf := o
		oInf.BandwidthGBps = 0
		base := run("zeus", Base, oInf)
		pf := run("zeus", Prefetch, oInf)
		if pf.Mean(bwOf) <= base.Mean(bwOf) {
			t.Error("prefetching should increase bandwidth demand")
		}
	})
}

func ratioOf(m *sim.Metrics) float64 { return m.CompressionRatio }
func bwOf(m *sim.Metrics) float64    { return m.BandwidthGBps }
