package sim

import (
	"math"
	"reflect"
	"testing"

	"cmpsim/internal/audit"
	"cmpsim/internal/coherence"
	"cmpsim/internal/prefetch"
	"cmpsim/internal/workload"
)

// smallConfig is a scaled-down system that still exercises every
// mechanism: 4 cores, 512 KB L2, short runs.
func smallConfig(bench string) Config {
	cfg := NewConfig(bench)
	cfg.Cores = 4
	cfg.L2Bytes = 512 << 10
	cfg.WarmupInstr = 150_000
	cfg.MeasureInstr = 80_000
	return cfg
}

func run(t *testing.T, cfg Config) Metrics {
	t.Helper()
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRunBasicSanity(t *testing.T) {
	m := run(t, smallConfig("zeus"))
	if m.Instructions < 4*80_000 {
		t.Fatalf("instructions = %d", m.Instructions)
	}
	if m.Cycles <= 0 || m.IPC <= 0 {
		t.Fatalf("cycles=%f ipc=%f", m.Cycles, m.IPC)
	}
	if m.L2Accesses == 0 || m.L2Misses == 0 {
		t.Fatalf("L2 accesses=%d misses=%d", m.L2Accesses, m.L2Misses)
	}
	if m.L2MissRate <= 0 || m.L2MissRate > 1 {
		t.Fatalf("miss rate %f", m.L2MissRate)
	}
	if m.OffChipBytes == 0 || m.BandwidthGBps <= 0 {
		t.Fatalf("bytes=%d bw=%f", m.OffChipBytes, m.BandwidthGBps)
	}
}

func TestRunDeterminism(t *testing.T) {
	cfg := smallConfig("apache")
	cfg.Prefetching = true
	cfg.CacheCompression = true
	cfg.LinkCompression = true
	m1 := run(t, cfg)
	m2 := run(t, cfg)
	if m1.Cycles != m2.Cycles || m1.L2Misses != m2.L2Misses || m1.OffChipBytes != m2.OffChipBytes {
		t.Fatalf("non-deterministic: %v/%v cycles, %d/%d misses",
			m1.Cycles, m2.Cycles, m1.L2Misses, m2.L2Misses)
	}
}

func TestSeedsChangeResults(t *testing.T) {
	cfg := smallConfig("apache")
	m1 := run(t, cfg)
	cfg.Seed = 2
	m2 := run(t, cfg)
	if m1.Cycles == m2.Cycles && m1.L2Misses == m2.L2Misses {
		t.Fatal("different seeds gave identical results")
	}
}

func TestCompressionIncreasesEffectiveSize(t *testing.T) {
	cfg := smallConfig("jbb") // most compressible benchmark
	cfg.CacheCompression = true
	m := run(t, cfg)
	if m.CompressionRatio <= 1.05 {
		t.Fatalf("compression ratio %f should exceed 1.05 for jbb", m.CompressionRatio)
	}
	if m.L2CompressedHits == 0 {
		t.Fatal("no compressed hits recorded")
	}
	if m.MeanL2HitLatency <= cfg.L2HitCycles {
		t.Fatalf("mean hit latency %f should include decompression", m.MeanL2HitLatency)
	}
}

func TestBaseCacheHasRatioOne(t *testing.T) {
	cfg := smallConfig("jbb")
	m := run(t, cfg)
	if m.CompressionRatio > 1.001 {
		t.Fatalf("uncompressed cache ratio %f > 1", m.CompressionRatio)
	}
	if m.L2CompressedHits != 0 {
		t.Fatal("uncompressed cache reported compressed hits")
	}
}

func TestLinkCompressionReducesBytes(t *testing.T) {
	cfg := smallConfig("jbb")
	base := run(t, cfg)
	cfg.LinkCompression = true
	lc := run(t, cfg)
	// Same miss stream, fewer flits per message.
	if lc.OffChipBytes >= base.OffChipBytes {
		t.Fatalf("link compression did not reduce bytes: %d vs %d",
			lc.OffChipBytes, base.OffChipBytes)
	}
}

func TestSPECompDataBarelyCompresses(t *testing.T) {
	cfg := smallConfig("apsi")
	cfg.CacheCompression = true
	m := run(t, cfg)
	if m.CompressionRatio > 1.1 {
		t.Fatalf("apsi ratio %f should stay near 1", m.CompressionRatio)
	}
}

func TestPrefetchingIssuesAndHits(t *testing.T) {
	cfg := smallConfig("mgrid") // highly strided
	cfg.Prefetching = true
	m := run(t, cfg)
	l2 := m.Engine(coherence.PfL2)
	if l2.Prefetches == 0 || l2.PrefetchHits == 0 {
		t.Fatalf("L2 prefetcher idle: %+v", l2)
	}
	if l2.Accuracy() <= 0.3 {
		t.Fatalf("mgrid L2 accuracy %f too low", l2.Accuracy())
	}
	// At this scaled-down geometry coverage is modest; the full-scale
	// value is checked by the Table 4 calibration in EXPERIMENTS.md.
	if l2.Coverage() <= 0.08 {
		t.Fatalf("mgrid L2 coverage %f too low", l2.Coverage())
	}
	if d := m.Engine(coherence.PfL1D); d.Coverage() <= 0.3 {
		t.Fatalf("mgrid L1D coverage %f too low", d.Coverage())
	}
	// Prefetching must reduce demand misses vs the base run.
	base := run(t, smallConfig("mgrid"))
	if m.L2Misses >= base.L2Misses {
		t.Fatalf("prefetching did not reduce misses: %d vs %d", m.L2Misses, base.L2Misses)
	}
}

func TestPrefetchingOffMeansNoPrefetches(t *testing.T) {
	m := run(t, smallConfig("mgrid"))
	for src := 0; src < 4; src++ {
		if m.Engines[src].Prefetches != 0 {
			t.Fatalf("engine %d issued prefetches with prefetching off", src)
		}
	}
}

func TestAdaptiveThrottlesUselessPrefetching(t *testing.T) {
	// jbb's short streams make the deep L2 prefetcher inaccurate; the
	// adaptive controller must cut its issue rate.
	cfg := smallConfig("jbb")
	cfg.Prefetching = true
	pf := run(t, cfg)
	cfg.AdaptivePrefetch = true
	ad := run(t, cfg)
	pfRate := pf.Engine(coherence.PfL2).RatePer1000(pf.Instructions)
	adRate := ad.Engine(coherence.PfL2).RatePer1000(ad.Instructions)
	if adRate >= pfRate {
		t.Fatalf("adaptive L2 rate %f should be below non-adaptive %f", adRate, pfRate)
	}
	if ad.Adaptive.Useful == 0 || ad.Adaptive.Useless == 0 {
		t.Fatalf("adaptive events missing: %+v", ad.Adaptive)
	}
}

func TestInfiniteBandwidthFaster(t *testing.T) {
	cfg := smallConfig("fma3d") // bandwidth-bound
	finite := run(t, cfg)
	cfg.Memory.LinkBytesPerCycle = 0
	infinite := run(t, cfg)
	if infinite.Cycles >= finite.Cycles {
		t.Fatalf("infinite bandwidth not faster: %f vs %f", infinite.Cycles, finite.Cycles)
	}
	if finite.LinkQueueDelay == 0 {
		t.Fatal("finite-bandwidth run recorded no queueing")
	}
}

// TestInfinitePinsNoLinkQueueing is a metamorphic paper invariant:
// with infinite pin bandwidth (LinkBytesPerCycle 0) a transfer occupies
// the link for no time, so nothing queues for it and it is never busy,
// with or without link compression.
func TestInfinitePinsNoLinkQueueing(t *testing.T) {
	t.Parallel()
	for _, bench := range []string{"zeus", "fma3d"} {
		for _, linkC := range []bool{false, true} {
			cfg := smallConfig(bench)
			cfg.WarmupInstr, cfg.MeasureInstr = 20_000, 10_000
			cfg.Memory.LinkBytesPerCycle = 0
			cfg.LinkCompression = linkC
			m := run(t, cfg)
			if m.MemFetches == 0 {
				t.Fatalf("%s link compression %v: no memory traffic to check", bench, linkC)
			}
			if m.LinkQueueDelay != 0 || m.LinkUtilization != 0 {
				t.Errorf("%s link compression %v: link queue delay %g cycles, utilization %g; want 0 and 0",
					bench, linkC, m.LinkQueueDelay, m.LinkUtilization)
			}
		}
	}
}

func TestMissProfileCollection(t *testing.T) {
	cfg := smallConfig("zeus")
	cfg.CollectMissProfile = true
	m := run(t, cfg)
	if len(m.MissProfile) == 0 {
		t.Fatal("miss profile empty")
	}
	var total uint64
	for _, n := range m.MissProfile {
		total += uint64(n)
	}
	if total == 0 || total > m.L2Misses+m.MemFetches {
		t.Fatalf("profile total %d inconsistent with misses %d", total, m.L2Misses)
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"unknown benchmark", func(c *Config) { c.Benchmark = "nosuch" }},
		{"zero cores", func(c *Config) { c.Cores = 0 }},
		{"too many cores", func(c *Config) { c.Cores = 99 }},
		{"zero measure window", func(c *Config) { c.MeasureInstr = 0 }},
		{"zero L1 size", func(c *Config) { c.L1Bytes = 0 }},
		{"non-power-of-two L1 sets", func(c *Config) { c.L1Bytes = 48 * 1024 }},
		{"non-power-of-two L2 sets", func(c *Config) { c.L2Bytes = 3 << 20 }},
		{"non-power-of-two compressed L2 sets", func(c *Config) { c.L2Bytes = 3 << 20; c.CacheCompression = true }},
		{"zero L1 hit latency", func(c *Config) { c.L1HitCycles = 0 }},
		{"negative L1 prefetch depth", func(c *Config) { c.L1PrefetchDepth = -1 }},
		{"negative L2 prefetch depth", func(c *Config) { c.L2PrefetchDepth = -1 }},
		{"negative victim tags", func(c *Config) { c.UncompressedVictimTags = -1 }},
		{"zero L2 size", func(c *Config) { c.L2Bytes = 0 }},
		{"zero L2 banks", func(c *Config) { c.L2Banks = 0 }},
		{"zero L2 hit latency", func(c *Config) { c.L2HitCycles = 0 }},
		{"zero clock", func(c *Config) { c.ClockGHz = 0 }},
		{"adaptive without prefetching", func(c *Config) { c.AdaptivePrefetch = true; c.Prefetching = false }},
		{"zero DRAM banks", func(c *Config) { c.Memory.Banks = 0 }},
		{"negative DRAM banks", func(c *Config) { c.Memory.Banks = -4 }},
		{"zero DRAM latency", func(c *Config) { c.Memory.DRAMLatency = 0 }},
		{"negative bank occupancy", func(c *Config) { c.Memory.BankOccupancy = -1 }},
		{"negative link bandwidth", func(c *Config) { c.Memory.LinkBytesPerCycle = -1 }},
		{"link bandwidth over tick resolution", func(c *Config) { c.Memory.LinkBytesPerCycle = 1e12 }},
		{"zero CPU BaseCPI", func(c *Config) { c.CPU.BaseCPI = 0 }},
		{"zero MSHRs", func(c *Config) { c.CPU.MSHRs = 0 }},
		{"unknown codec", func(c *Config) { c.Codec = "lz4" }},
		{"non-representable decompression latency", func(c *Config) { c.DecompressionCycles = 1.0 / 3.0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := NewConfig("zeus")
			tc.mut(&cfg)
			if _, err := Run(cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

// TestValidateCacheGeometry pins which set counts Validate checks: the
// L1's, and the L2's for the L2 NewSystem builds (compressed or not), so
// every geometry it accepts constructs.
func TestValidateCacheGeometry(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		ok   bool
	}{
		{"paper geometry", func(c *Config) {}, true},
		{"paper geometry, compressed", func(c *Config) { c.CacheCompression = true }, true},
		{"L1 of 48 KB: 192 sets", func(c *Config) { c.L1Bytes = 48 * 1024 }, false},
		{"L1 smaller than one set", func(c *Config) { c.L1Bytes = 128 }, false},
		{"L2 of 3 MB: 6144 sets", func(c *Config) { c.L2Bytes = 3 << 20 }, false},
		{"compressed L2 of 3 MB: 12288 sets", func(c *Config) { c.L2Bytes = 3 << 20; c.CacheCompression = true }, false},
		{"3-line compressed sets, compression off", func(c *Config) { c.L2SegsPerSet = 24 }, true},
		{"3-line compressed sets, compression on", func(c *Config) { c.L2SegsPerSet = 24; c.CacheCompression = true }, false},
		{"6-way uncompressed L2, compression on", func(c *Config) { c.L2Ways = 6; c.CacheCompression = true }, true},
		{"6-way uncompressed L2, compression off", func(c *Config) { c.L2Ways = 6 }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := NewConfig("zeus")
			tc.mut(&cfg)
			err := cfg.Validate()
			if (err == nil) != tc.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, tc.ok)
			}
			if err == nil {
				if _, err := NewSystem(cfg); err != nil {
					t.Fatalf("NewSystem: %v", err)
				}
			}
		})
	}
}

// TestCoreCountIsFreeParameter runs the full mechanism stack end to
// end at 4 and 16 cores (the paper's fixed 8 is just a default) and
// checks the per-core structures scale: total work is per-core, and
// more cores contending for the same L2 and pins must not deadlock or
// drop work. A non-power-of-two bank count rides along to cover the
// modulo interleave end to end.
func TestCoreCountIsFreeParameter(t *testing.T) {
	for _, cores := range []int{4, 16} {
		cfg := smallConfig("zeus").WithMechanisms(true, true, true, true)
		cfg.Cores = cores
		cfg.L2Banks = 7 // non-power-of-two interleave
		cfg.Memory.Banks = 5
		m := run(t, cfg)
		if m.Cores != cores {
			t.Fatalf("metrics report %d cores, want %d", m.Cores, cores)
		}
		if want := uint64(cores) * cfg.MeasureInstr; m.Instructions != want {
			t.Fatalf("%d cores: instructions %d, want %d", cores, m.Instructions, want)
		}
		if m.Cycles <= 0 || m.IPC <= 0 {
			t.Fatalf("%d cores: cycles=%f ipc=%f", cores, m.Cycles, m.IPC)
		}
		// Determinism must hold at every core count.
		if m2 := run(t, cfg); m2.Cycles != m.Cycles || m2.L2Misses != m.L2Misses {
			t.Fatalf("%d cores: non-deterministic", cores)
		}
	}
}

// TestHeavyBankConflict funnels every L2 and DRAM access through a
// single bank with prefetching on: the worst case for the in-flight
// prefetch table (resolveInflight sees many partial hits because
// serialized fills complete late) and for its pruning (entries
// accumulate behind the bank backlog). The invariant audit runs the
// mshr-inflight and resource-state sweeps throughout.
func TestHeavyBankConflict(t *testing.T) {
	cfg := smallConfig("mgrid").WithMechanisms(false, false, true, false)
	cfg.L2Banks = 1
	cfg.Memory.Banks = 1
	cfg.L2BankOccupancy = 8 // stretch the serialization
	cfg.CheckLevel = audit.Invariants
	m := run(t, cfg)
	var partial, hits uint64
	for src := range m.Engines {
		partial += m.Engines[src].PartialHits
		hits += m.Engines[src].PrefetchHits
	}
	if hits == 0 {
		t.Fatal("no prefetch hits under bank conflict")
	}
	if partial == 0 {
		t.Fatal("serialized banks produced no partial hits (resolveInflight untested)")
	}
	if m.DRAMQueueDelay == 0 {
		t.Fatal("single DRAM bank recorded no queueing")
	}
	// The conflicted run must cost more than the banked one.
	banked := cfg
	banked.L2Banks = 8
	banked.Memory.Banks = 16
	banked.L2BankOccupancy = 4
	mb := run(t, banked)
	if m.Cycles <= mb.Cycles {
		t.Fatalf("bank conflict not slower: %f vs %f", m.Cycles, mb.Cycles)
	}
}

func TestMechanismLabels(t *testing.T) {
	cfg := NewConfig("zeus")
	cases := []struct {
		cacheC, linkC, pf, adaptive bool
		want                        string
	}{
		{false, false, false, false, "base"},
		{true, false, false, false, "cache-compr"},
		{false, true, false, false, "link-compr"},
		{true, true, false, false, "compression"},
		{false, false, true, false, "pf"},
		{true, false, true, false, "pf+cache-compr"},
		{false, true, true, false, "pf+link-compr"},
		{true, true, true, false, "pf+compression"},
		{false, false, true, true, "adaptive-pf"},
		// The three adaptive+compression combinations used to collapse
		// into one label; each must now be distinct, with the full
		// combination keeping its historical name.
		{true, false, true, true, "adaptive-pf+cache-compr"},
		{false, true, true, true, "adaptive-pf+link-compr"},
		{true, true, true, true, "adaptive-pf+compression"},
	}
	seen := make(map[string]bool)
	for _, tc := range cases {
		got := cfg.WithMechanisms(tc.cacheC, tc.linkC, tc.pf, tc.adaptive).MechanismLabel()
		if got != tc.want {
			t.Errorf("WithMechanisms(%v,%v,%v,%v) = %q, want %q",
				tc.cacheC, tc.linkC, tc.pf, tc.adaptive, got, tc.want)
		}
		if seen[got] {
			t.Errorf("label %q not unique across combinations", got)
		}
		seen[got] = true
	}
}

func TestUniprocessorRuns(t *testing.T) {
	cfg := smallConfig("zeus")
	cfg.Cores = 1
	cfg.Prefetching = true
	m := run(t, cfg)
	if m.Cores != 1 || m.Instructions < 80_000 {
		t.Fatalf("uniprocessor run: %+v", m)
	}
}

func TestCommercialVsSPECompCharacter(t *testing.T) {
	// The commercial workload must show far more L1I misses (large
	// instruction footprint) than the scientific one.
	com := run(t, smallConfig("oltp"))
	sci := run(t, smallConfig("mgrid"))
	comRate := float64(com.L1IMisses) / float64(com.Instructions)
	sciRate := float64(sci.L1IMisses) / float64(sci.Instructions)
	if comRate < 4*sciRate {
		t.Fatalf("oltp L1I miss rate %g should dwarf mgrid's %g", comRate, sciRate)
	}
}

func TestCoherenceActivityOnSharedData(t *testing.T) {
	m := run(t, smallConfig("oltp")) // highest sharing
	if m.StoreUpgrades == 0 || m.Invalidations == 0 {
		t.Fatalf("no coherence activity: %+v", m)
	}
}

func TestMeasurementWindowDeltas(t *testing.T) {
	// Doubling the measurement window should roughly double instructions
	// but keep per-KI metrics stable.
	cfg := smallConfig("zeus")
	m1 := run(t, cfg)
	cfg.MeasureInstr *= 2
	m2 := run(t, cfg)
	if m2.Instructions < m1.Instructions*3/2 {
		t.Fatalf("instructions did not scale: %d vs %d", m1.Instructions, m2.Instructions)
	}
	if m1.L2MissesPerKI == 0 || math.Abs(m2.L2MissesPerKI-m1.L2MissesPerKI) > m1.L2MissesPerKI*0.5 {
		t.Fatalf("misses/KI unstable: %f vs %f", m1.L2MissesPerKI, m2.L2MissesPerKI)
	}
}

func BenchmarkSimZeusBase(b *testing.B) {
	cfg := smallConfig("zeus")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSystemStep measures the integer hot path in isolation: one
// step (reference generation, hierarchy access, tick-domain pricing)
// on a warmed system with every mechanism on, bypassing Run's
// construction and metric assembly.
func BenchmarkSystemStep(b *testing.B) {
	cfg := smallConfig("zeus").WithMechanisms(true, true, true, true)
	s, err := NewSystem(cfg)
	if err != nil {
		b.Fatal(err)
	}
	s.phase(cfg.WarmupInstr)
	targets := make([]uint64, s.fe.count())
	for i := range targets {
		targets[i] = ^uint64(0) // never finished: steps are driven by b.N
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.runTo(targets, b.N)
}

func TestSequentialPrefetcherKind(t *testing.T) {
	cfg := smallConfig("mgrid")
	cfg.Prefetching = true
	cfg.PrefetcherKind = "sequential"
	seq := run(t, cfg)
	l2 := seq.Engine(coherence.PfL2)
	if l2.Prefetches == 0 {
		t.Fatal("sequential prefetcher idle")
	}
	// The stride engine must beat the sequential baseline on mgrid's
	// non-unit strides (strides 2 and 3 are invisible to sequential).
	cfg.PrefetcherKind = "stride"
	stride := run(t, cfg)
	if stride.Cycles >= seq.Cycles {
		t.Fatalf("stride (%f) should beat sequential (%f) on mgrid", stride.Cycles, seq.Cycles)
	}
}

func TestUnknownPrefetcherKindRejected(t *testing.T) {
	cfg := smallConfig("zeus")
	cfg.PrefetcherKind = "nosuch"
	if _, err := Run(cfg); err == nil {
		t.Fatal("unknown prefetcher kind accepted")
	}
	cfg = smallConfig("zeus")
	cfg.RefSource = "nosuch"
	if _, err := Run(cfg); err == nil {
		t.Fatal("unknown reference source accepted")
	}
}

func TestRegisteredPrefetcherKindsRun(t *testing.T) {
	// Every registry kind must drive a full run; the stream buffers
	// must actually prefetch on mgrid's unit-stride component.
	for _, kind := range prefetch.Names() {
		cfg := smallConfig("mgrid")
		cfg.Prefetching = true
		cfg.PrefetcherKind = kind
		m := run(t, cfg)
		if kind == "stream" && m.Engine(coherence.PfL1D).Prefetches == 0 {
			t.Errorf("%s: prefetcher idle on mgrid", kind)
		}
	}
}

func TestMarkovCoversPointerChase(t *testing.T) {
	// The correlation prefetcher must find recurring miss transitions
	// in the pointer chase and deliver useful prefetches where the
	// stride engine finds (nearly) nothing to train on.
	cfg := smallConfig("ptrchase")
	cfg.Prefetching = true
	cfg.PrefetcherKind = "markov"
	m := run(t, cfg)
	var hits uint64
	for _, e := range []coherence.PfSource{coherence.PfL1D, coherence.PfL2} {
		hits += m.Engine(e).PrefetchHits
	}
	if hits == 0 {
		t.Fatal("markov prefetcher produced no useful prefetches on ptrchase")
	}
}

func TestIrregularBenchmarksRun(t *testing.T) {
	// Every irregular benchmark completes a full all-mechanisms run
	// deterministically.
	for _, bench := range workload.IrregularOrder() {
		cfg := smallConfig(bench)
		cfg = cfg.WithMechanisms(true, true, true, true)
		a := run(t, cfg)
		b := run(t, cfg)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: repeated runs differ", bench)
		}
		if a.Instructions == 0 || a.Cycles <= 0 {
			t.Errorf("%s: degenerate run", bench)
		}
	}
}

func TestRefSourceOverride(t *testing.T) {
	// Forcing a reference-source kind onto a foreign profile must
	// change the run (and forcing the profile's own kind must not).
	cfg := smallConfig("zeus")
	base := run(t, cfg)
	cfg.RefSource = "ptrchase"
	forced := run(t, cfg)
	if reflect.DeepEqual(base, forced) {
		t.Fatal("RefSource override had no effect")
	}
	cfg.RefSource = "strided"
	explicit := run(t, cfg)
	if !reflect.DeepEqual(base, explicit) {
		t.Fatal(`RefSource "strided" must equal zeus's default stream`)
	}
}
