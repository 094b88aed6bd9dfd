// Package core is the library facade for the reproduction: it assembles
// paper-configured simulations (sim), runs each data point over several
// seeds with the paper's statistical treatment (stats), and provides
// one driver per table and figure of the evaluation section, plus the
// ablations of its design choices. All of it runs on a Scheduler the
// caller creates (NewScheduler) and closes:
//
//	s := core.NewScheduler(0) // one worker per CPU
//	defer s.Close()
//	p, err := s.Submit("zeus", core.PrefCompr, core.QuickOptions()).Wait()
//	rows := s.InteractionStudy(core.Benchmarks(), core.QuickOptions())
//
// The mechanism combinations under study are named the way the paper's
// figure legends name them:
//
//	Base          no compression, no prefetching
//	CacheCompr    L2 cache compression only
//	LinkCompr     link compression only
//	Compression   cache + link compression
//	Prefetch      stride prefetching only
//	AdaptivePf    stride prefetching with adaptive throttling
//	PrefCompr     prefetching + both compressions
//	AdaptiveCompr adaptive prefetching + both compressions
package core

import (
	"fmt"
	"time"

	"cmpsim/internal/codec"
	"cmpsim/internal/sim"
	"cmpsim/internal/stats"
	"cmpsim/internal/workload"
)

// Mechanisms selects the architectural enhancements for a run.
type Mechanisms struct {
	CacheCompression bool
	LinkCompression  bool
	Prefetching      bool
	Adaptive         bool
}

// The paper's mechanism combinations.
var (
	Base          = Mechanisms{}
	CacheCompr    = Mechanisms{CacheCompression: true}
	LinkCompr     = Mechanisms{LinkCompression: true}
	Compression   = Mechanisms{CacheCompression: true, LinkCompression: true}
	Prefetch      = Mechanisms{Prefetching: true}
	AdaptivePf    = Mechanisms{Prefetching: true, Adaptive: true}
	PrefCompr     = Mechanisms{CacheCompression: true, LinkCompression: true, Prefetching: true}
	AdaptiveCompr = Mechanisms{CacheCompression: true, LinkCompression: true, Prefetching: true, Adaptive: true}
)

// Label names the combination as in the paper's legends.
func (m Mechanisms) Label() string {
	switch m {
	case Base:
		return "base"
	case CacheCompr:
		return "cache-compr"
	case LinkCompr:
		return "link-compr"
	case Compression:
		return "compression"
	case Prefetch:
		return "prefetch"
	case AdaptivePf:
		return "adaptive-pf"
	case PrefCompr:
		return "pf+compr"
	case AdaptiveCompr:
		return "adaptive+compr"
	default:
		return fmt.Sprintf("%+v", struct{ C, L, P, A bool }{m.CacheCompression, m.LinkCompression, m.Prefetching, m.Adaptive})
	}
}

// Options controls run size and system scale. The worker count is not
// an option: it belongs to the Scheduler the point is submitted to.
type Options struct {
	Cores int
	Seeds int // independent runs per data point

	// PointTimeout is the per-seed watchdog deadline: a simulation that
	// produces no result within it is abandoned and the point fails with
	// a timeout PointError (0 = no deadline). It never changes simulation
	// results and is excluded from the point-cache key.
	PointTimeout time.Duration

	// CheckLevel forces the runtime audit tier for every seed run: "off",
	// "invariants" or "shadow" (see internal/audit). "" keeps the
	// environment default (CMPSIM_CHECK). The audit is read-only — any
	// level produces bit-identical metrics — so the field is canonicalized
	// out of the point-cache key like PointTimeout.
	CheckLevel string

	Warmup        uint64  // instructions per core
	Measure       uint64  // instructions per core
	BandwidthGBps float64 // pin bandwidth; 0 = infinite (demand metric)
	L2MB          int

	// CollectMissProfile enables per-block miss accounting (Figure 8).
	CollectMissProfile bool

	// TelemetryInterval samples interval telemetry every N aggregate
	// instructions of each run's measurement window (0 = disabled); the
	// samples land in each run's sim.Metrics.Timeline.
	TelemetryInterval uint64

	// Hardware overrides for the ablation study. Zero values keep the
	// paper's Table 1 parameters; UncompressedVictimTags uses -1 to
	// disable victim tags entirely.
	L2PrefetchDepth        int
	DecompressionCycles    float64 // applied only when DecompressionSet
	DecompressionSet       bool
	L2TagsPerSet           int
	UncompressedVictimTags int
	// PrefetcherKind selects the engine from the internal/prefetch
	// registry; "" canonicalizes to "stride" (the paper's engine) for
	// the point-cache key. "sequential", "stream" and "markov" are the
	// alternative families.
	PrefetcherKind string

	// Codec selects the line-compression scheme (internal/codec registry
	// name); "" or "fpc" is the paper's FPC and canonicalizes to the
	// same point-cache key. Selecting a codec without DecompressionSet
	// applies the codec's own default decompression latency.
	Codec string
}

// DefaultOptions is the paper's 8-core system with enough warmup for the
// 4 MB L2 to reach steady state.
func DefaultOptions() Options {
	return Options{Cores: 8, Seeds: 2, Warmup: 3_000_000, Measure: 1_000_000, BandwidthGBps: 20, L2MB: 4}
}

// QuickOptions is a scaled-down configuration for tests and benchmarks:
// the same mechanisms on a smaller cache and shorter runs.
func QuickOptions() Options {
	return Options{Cores: 8, Seeds: 1, Warmup: 400_000, Measure: 200_000, BandwidthGBps: 20, L2MB: 4}
}

// config builds the sim.Config for one run.
func (o Options) config(bench string, m Mechanisms, seed int64) sim.Config {
	cfg := sim.NewConfig(bench)
	cfg.Cores = o.Cores
	cfg.Seed = seed
	cfg.WarmupInstr = o.Warmup
	cfg.MeasureInstr = o.Measure
	cfg.CacheCompression = m.CacheCompression
	cfg.LinkCompression = m.LinkCompression
	cfg.Prefetching = m.Prefetching
	cfg.AdaptivePrefetch = m.Adaptive
	if o.L2MB > 0 {
		cfg.L2Bytes = o.L2MB << 20
	}
	cfg.L2PrefetchDepth = o.L2PrefetchDepth
	cfg.Codec = o.Codec
	if o.DecompressionSet {
		cfg.DecompressionCycles = o.DecompressionCycles
	} else if c, err := codec.ByName(o.Codec); err == nil && c.Name() != codec.DefaultName {
		// A non-default codec brings its own decompression pipeline
		// depth; unknown names fall through to sim.Validate for a clean
		// point failure.
		cfg.DecompressionCycles = c.DecompressionCycles()
	}
	if o.L2TagsPerSet > 0 {
		cfg.L2TagsPerSet = o.L2TagsPerSet
	}
	if o.UncompressedVictimTags > 0 {
		cfg.UncompressedVictimTags = o.UncompressedVictimTags
	} else if o.UncompressedVictimTags < 0 {
		cfg.UncompressedVictimTags = 0
	}
	cfg.PrefetcherKind = o.PrefetcherKind
	cfg.Memory.LinkBytesPerCycle = o.BandwidthGBps / cfg.ClockGHz
	cfg.CollectMissProfile = o.CollectMissProfile
	cfg.TelemetryInterval = o.TelemetryInterval
	return cfg
}

// Point is one measured data point: a benchmark × mechanism combination,
// run over Options.Seeds seeds.
type Point struct {
	Benchmark  string
	Mechanisms Mechanisms
	Runtime    stats.Sample  // cycles
	Runs       []sim.Metrics // one per seed
}

// Mean returns a scalar metric's mean over the seeds.
func (p Point) Mean(f func(*sim.Metrics) float64) float64 {
	if len(p.Runs) == 0 {
		return 0
	}
	sum := 0.0
	for i := range p.Runs {
		sum += f(&p.Runs[i])
	}
	return sum / float64(len(p.Runs))
}

// Speedup returns runtime(base)/runtime(enhanced) between two points.
func Speedup(base, enhanced Point) float64 {
	return stats.Speedup(base.Runtime.Mean, enhanced.Runtime.Mean)
}

// Benchmarks returns the paper's eight benchmarks in figure order.
func Benchmarks() []string { return workload.PaperOrder() }

// CommercialBenchmarks returns the four Wisconsin commercial workloads.
func CommercialBenchmarks() []string { return workload.PaperOrder()[:4] }

// IrregularBenchmarks returns the linked-data-structure suite the
// irregular study runs over.
func IrregularBenchmarks() []string { return workload.IrregularOrder() }
