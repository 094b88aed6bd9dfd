package core

import (
	"math"
	"strings"
	"testing"

	"cmpsim/internal/codec"
	"cmpsim/internal/sim"
)

// tinyOptions keeps core tests fast: 2 cores, 1 MB L2, short runs.
func tinyOptions() Options {
	return Options{
		Cores: 2, Seeds: 2, Warmup: 100_000, Measure: 60_000,
		BandwidthGBps: 10, L2MB: 1,
	}
}

func TestRunProducesSeededSample(t *testing.T) {
	s := NewScheduler(2)
	defer s.Close()
	p, err := s.Submit("zeus", Base, tinyOptions()).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if p.Runtime.N != 2 || len(p.Runs) != 2 {
		t.Fatalf("expected 2 seeds, got %d", p.Runtime.N)
	}
	if p.Runtime.Mean <= 0 || p.Runtime.CI95() < 0 {
		t.Fatalf("sample %+v", p.Runtime)
	}
	if p.Runs[0].Cycles == p.Runs[1].Cycles {
		t.Fatal("seeds produced identical runtimes")
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	s := NewScheduler(1)
	defer s.Close()
	if _, err := s.Submit("nosuch", Base, tinyOptions()).Wait(); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	o := tinyOptions()
	o.Seeds = 0
	if _, err := s.Submit("zeus", Base, o).Wait(); err == nil {
		t.Fatal("zero seeds accepted")
	}
}

func TestMechanismLabels(t *testing.T) {
	want := map[string]Mechanisms{
		"base": Base, "cache-compr": CacheCompr, "link-compr": LinkCompr,
		"compression": Compression, "prefetch": Prefetch, "adaptive-pf": AdaptivePf,
		"pf+compr": PrefCompr, "adaptive+compr": AdaptiveCompr,
	}
	for label, m := range want {
		if m.Label() != label {
			t.Errorf("%v label = %q, want %q", m, m.Label(), label)
		}
	}
	odd := Mechanisms{CacheCompression: true, Prefetching: true}
	if !strings.Contains(odd.Label(), "true") {
		t.Errorf("fallback label %q", odd.Label())
	}
}

func TestPointMean(t *testing.T) {
	p := Point{Runs: []sim.Metrics{{IPC: 1}, {IPC: 3}}}
	if got := p.Mean(func(m *sim.Metrics) float64 { return m.IPC }); math.Abs(got-2) > 1e-12 {
		t.Fatalf("mean = %f", got)
	}
	var empty Point
	if empty.Mean(func(m *sim.Metrics) float64 { return 1 }) != 0 {
		t.Fatal("empty point mean should be 0")
	}
}

func TestBenchmarkLists(t *testing.T) {
	if len(Benchmarks()) != 8 {
		t.Fatalf("benchmarks = %v", Benchmarks())
	}
	com := CommercialBenchmarks()
	if len(com) != 4 || com[0] != "apache" || com[3] != "jbb" {
		t.Fatalf("commercial = %v", com)
	}
}

func TestCompressionStudyShape(t *testing.T) {
	s := NewScheduler(2)
	defer s.Close()
	rows := s.CompressionStudy([]string{"jbb", "apsi"}, tinyOptions())
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	jbb, apsi := rows[0], rows[1]
	if jbb.Benchmark != "jbb" || apsi.Benchmark != "apsi" {
		t.Fatal("row order")
	}
	// The central compressibility split must hold at any scale.
	if jbb.Ratio <= apsi.Ratio {
		t.Fatalf("jbb ratio %.2f should exceed apsi %.2f", jbb.Ratio, apsi.Ratio)
	}
	if jbb.BaseMissPerKI <= 0 {
		t.Fatal("no misses measured")
	}
}

func TestBandwidthStudyUsesInfinitePins(t *testing.T) {
	s := NewScheduler(2)
	defer s.Close()
	rows := s.BandwidthStudy([]string{"fma3d"}, tinyOptions())
	if len(rows) != 1 || rows[0].None <= 0 {
		t.Fatalf("rows = %+v", rows)
	}
	// Link compression must not increase demand.
	if rows[0].LinkOnly > rows[0].None*1.01 {
		t.Fatalf("link compression raised demand: %+v", rows[0])
	}
}

func TestPrefetchPropertiesShape(t *testing.T) {
	s := NewScheduler(2)
	defer s.Close()
	rows := s.PrefetchProperties([]string{"mgrid", "oltp"}, tinyOptions())
	mgrid, oltp := rows[0], rows[1]
	// Scientific codes barely touch the L1I prefetcher; commercial ones
	// drive it hard (Table 4's starkest contrast).
	if mgrid.L1I.RatePer1000 > 1 {
		t.Fatalf("mgrid L1I rate %.2f should be ~0", mgrid.L1I.RatePer1000)
	}
	if oltp.L1I.RatePer1000 < 1 {
		t.Fatalf("oltp L1I rate %.2f should be substantial", oltp.L1I.RatePer1000)
	}
	if mgrid.L1D.CoveragePct <= oltp.L1D.CoveragePct {
		t.Fatalf("mgrid L1D coverage %.1f should exceed oltp %.1f",
			mgrid.L1D.CoveragePct, oltp.L1D.CoveragePct)
	}
}

func TestInteractionStudyConsistency(t *testing.T) {
	s := NewScheduler(2)
	defer s.Close()
	rows := s.InteractionStudy([]string{"zeus"}, tinyOptions())
	r := rows[0]
	// EQ 5 must reconstruct: both = pref × compr × (1 + interaction).
	lhs := 1 + r.BothPct/100
	rhs := (1 + r.PrefPct/100) * (1 + r.ComprPct/100) * (1 + r.InteractionPct/100)
	if diff := lhs - rhs; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("EQ 5 violated: %f vs %f", lhs, rhs)
	}
}

func TestMissClassificationSumsTo100(t *testing.T) {
	s := NewScheduler(2)
	defer s.Close()
	o := tinyOptions()
	rows := s.MissClassification([]string{"zeus"}, o)
	r := rows[0]
	sum := r.NotAvoidedPct + r.OnlyComprPct + r.OnlyPrefPct + r.EitherPct
	if sum < 99.9 || sum > 100.1 {
		t.Fatalf("demand-miss classes sum to %f", sum)
	}
	if r.NotAvoidedPct < 0 || r.OnlyComprPct < 0 || r.OnlyPrefPct < 0 || r.EitherPct < 0 {
		t.Fatalf("negative class: %+v", r)
	}
}

func TestCoreSweepRuns(t *testing.T) {
	s := NewScheduler(2)
	defer s.Close()
	rows := s.CoreSweep("zeus", []int{1, 2}, tinyOptions())
	if len(rows) != 2 || rows[0].Cores != 1 || rows[1].Cores != 2 {
		t.Fatalf("rows = %+v", rows)
	}
}

func TestBandwidthSweepRuns(t *testing.T) {
	s := NewScheduler(2)
	defer s.Close()
	rows := s.BandwidthSweep([]string{"zeus"}, []int{10, 40}, tinyOptions())
	if len(rows) != 1 {
		t.Fatal("rows")
	}
	if _, ok := rows[0].InteractionPct[10]; !ok {
		t.Fatal("missing 10 GB/s point")
	}
	if _, ok := rows[0].InteractionPct[40]; !ok {
		t.Fatal("missing 40 GB/s point")
	}
}

func TestOptionsOverridesApply(t *testing.T) {
	o := tinyOptions()
	o.L2PrefetchDepth = 3
	o.DecompressionSet = true
	o.DecompressionCycles = 0
	o.L2TagsPerSet = 16
	o.UncompressedVictimTags = -1
	cfg := o.config("zeus", AdaptiveCompr, 1)
	if cfg.L2PrefetchDepth != 3 || cfg.DecompressionCycles != 0 || cfg.L2TagsPerSet != 16 {
		t.Fatalf("overrides not applied: %+v", cfg)
	}
	if cfg.UncompressedVictimTags != 0 {
		t.Fatalf("victim tags = %d, want 0", cfg.UncompressedVictimTags)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEffectiveSizeSample(t *testing.T) {
	// At this tiny scale the cache is only partially warm, so assert
	// plausibility rather than the full-scale Table 3 value (checked in
	// EXPERIMENTS.md): the sample must be positive and jbb must beat the
	// incompressible apsi.
	s := NewScheduler(2)
	defer s.Close()
	fJbb := s.Submit("jbb", CacheCompr, tinyOptions())
	fApsi := s.Submit("apsi", CacheCompr, tinyOptions())
	jbb, apsi := fJbb.MustWait(), fApsi.MustWait()
	jbbRatio := jbb.Mean(ratioOf)
	eff := jbb.Mean(func(m *sim.Metrics) float64 { return m.EffectiveL2Bytes })
	if jbbRatio <= 0 || eff <= 0 {
		t.Fatalf("ratio %f eff %f", jbbRatio, eff)
	}
	apsiRatio := apsi.Mean(ratioOf)
	if jbbRatio <= apsiRatio {
		t.Fatalf("jbb ratio %f should exceed apsi %f", jbbRatio, apsiRatio)
	}
}

func TestCodecOptionThreading(t *testing.T) {
	// A non-default codec flows into sim.Config and brings its own
	// decompression latency when none was set explicitly.
	o := tinyOptions()
	o.Codec = "cpack"
	cfg := o.config("zeus", Compression, 1)
	if cfg.Codec != "cpack" {
		t.Fatalf("Codec not threaded: %+v", cfg)
	}
	if want := codec.MustByName("cpack").DecompressionCycles(); cfg.DecompressionCycles != want {
		t.Fatalf("DecompressionCycles = %g, want the codec default %g", cfg.DecompressionCycles, want)
	}
	// An explicit latency wins over the codec default.
	o.DecompressionSet = true
	o.DecompressionCycles = 2.5
	if cfg := o.config("zeus", Compression, 1); cfg.DecompressionCycles != 2.5 {
		t.Fatalf("explicit DecompressionCycles overridden: %g", cfg.DecompressionCycles)
	}
	// The default codec keeps the paper's 5-cycle latency untouched.
	o = tinyOptions()
	o.Codec = "fpc"
	if cfg := o.config("zeus", Compression, 1); cfg.DecompressionCycles != sim.NewConfig("zeus").DecompressionCycles {
		t.Fatalf("fpc changed the default latency: %g", cfg.DecompressionCycles)
	}
}

func TestCodecCanonicalization(t *testing.T) {
	// "" and "fpc" are the same point: the second Submit must be served
	// from the cache, not simulated again.
	a, b := tinyOptions(), tinyOptions()
	b.Codec = "fpc"
	if canonicalOpts(a) != canonicalOpts(b) {
		t.Fatal("fpc does not canonicalize to the default codec")
	}
	c := tinyOptions()
	c.Codec = "bdi"
	if canonicalOpts(a) == canonicalOpts(c) {
		t.Fatal("bdi collides with the default codec in the cache key")
	}
	// An unknown codec must fail the point cleanly, not crash the pool.
	bad := tinyOptions()
	bad.Codec = "lz4"
	s := NewScheduler(1)
	defer s.Close()
	if _, err := s.Submit("zeus", Compression, bad).Wait(); err == nil {
		t.Fatal("unknown codec accepted")
	}
}
