// Package sim assembles the full CMP timing simulator: workload
// generators drive per-core sequencers (cpu.Core) whose memory
// references flow through the coherent cache hierarchy
// (coherence.Hierarchy over plain or compressed L2), the stride
// prefetch engines, and the off-chip memory system (memory.System).
// Shared resources — L2 banks, the pin link, DRAM banks — use
// busy-until reservation, so contention emerges from traffic.
//
// One Run produces a Metrics snapshot covering everything the paper's
// tables and figures report: runtime/IPC, miss rates, pin-bandwidth
// demand, compression ratios, per-prefetcher rate/coverage/accuracy,
// adaptive-event counts and (optionally) per-block miss profiles for
// the Figure 8 classification.
//
// Run is safe for concurrent use from multiple goroutines: every call
// assembles a private System (its own caches, RNGs, generators and
// counters) and shares no mutable package state, which is what lets
// internal/core's scheduler fan seed-level runs across a worker pool
// with bit-identical results to a serial sweep.
package sim

import (
	"fmt"

	"cmpsim/internal/audit"
	"cmpsim/internal/cache"
	"cmpsim/internal/codec"
	"cmpsim/internal/cpu"
	"cmpsim/internal/memory"
	"cmpsim/internal/prefetch"
	"cmpsim/internal/timing"
	"cmpsim/internal/workload"
)

// Config describes one simulation run. NewConfig supplies the paper's
// Table 1 parameters; callers toggle the four mechanisms under study.
type Config struct {
	Benchmark string
	Cores     int
	Seed      int64

	// Run length, instructions per core.
	WarmupInstr  uint64
	MeasureInstr uint64

	// The four mechanisms under study.
	CacheCompression bool
	LinkCompression  bool
	Prefetching      bool
	AdaptivePrefetch bool

	// Prefetch-depth overrides for ablation studies (0 = the paper's
	// defaults: 6 startup prefetches for L1 engines, 25 for L2).
	L1PrefetchDepth int
	L2PrefetchDepth int

	// PrefetcherKind selects the engine from the internal/prefetch
	// registry: "" or "stride" is the paper's Power4-style prefetcher;
	// "sequential" is the tagged sequential baseline, "stream" the
	// Jouppi stream buffers, "markov" the miss-correlation table.
	PrefetcherKind string

	// RefSource overrides the reference-source kind for every core
	// (internal/workload source registry name). "" uses each profile's
	// own kind — the strided Generator for the paper's eight
	// benchmarks, the linked-structure walks for the irregular suite —
	// which is NOT the same as forcing "strided".
	RefSource string

	// Codec selects the line-compression scheme (internal/codec registry
	// name). "" or "fpc" is the paper's Frequent Pattern Compression;
	// the choice drives block sizing, knob calibration and the shadow
	// audit roundtrip. DecompressionCycles is NOT re-defaulted here —
	// internal/core applies the codec's default latency when the caller
	// did not override it.
	Codec string

	// L1 parameters (per core, I and D each).
	L1Bytes     int
	L1Ways      int
	L1HitCycles float64

	// Shared L2.
	L2Bytes             int
	L2Ways              int // uncompressed associativity
	L2TagsPerSet        int // compressed geometry
	L2SegsPerSet        int
	L2Banks             int
	L2HitCycles         float64
	DecompressionCycles float64
	L2BankOccupancy     float64
	// VictimTags per set for the adaptive prefetcher when cache
	// compression is off (the paper's "four extra tags per set").
	UncompressedVictimTags int

	// Off-chip memory.
	Memory memory.Config

	// Core.
	CPU      cpu.Config
	ClockGHz float64

	// CollectMissProfile records per-block L2 demand miss counts
	// (needed only for the Figure 8 classification; costs memory).
	CollectMissProfile bool

	// TelemetryInterval samples the full counter set every N aggregate
	// (all-core) instructions of the measurement window into
	// Metrics.Timeline. 0 disables sampling (Timeline stays nil).
	TelemetryInterval uint64

	// CheckLevel selects the runtime audit tier (internal/audit): Off,
	// Invariants (structural sweeps at event boundaries) or Shadow
	// (plus a functional reference model cross-checking every load and
	// compressed fill). NewConfig defaults it from CMPSIM_CHECK. The
	// audit is read-only: any level leaves metrics bit-identical.
	CheckLevel audit.Level
	// CheckInterval is the number of simulation steps between structural
	// audit sweeps (0 means the 65536 default). Sweeps also run at phase
	// boundaries and at run end.
	CheckInterval uint64
	// StateFault injects one deterministic state corruption, spelled
	// "name@step" (e.g. "flip-sharer@5000"); see StateFaultNames. Test
	// support: proves each auditor class fires. "" disables.
	StateFault string
}

// NewConfig returns the paper's baseline system (Table 1) for a
// benchmark: 8 cores, 64 KB 4-way L1s (3-cycle), 4 MB 8-banked shared
// L2 (15-cycle, +5 decompression), 20 GB/s pins, 400-cycle DRAM, all
// mechanisms off.
func NewConfig(benchmark string) Config {
	return Config{
		Benchmark:    benchmark,
		Cores:        8,
		Seed:         1,
		WarmupInstr:  1_000_000,
		MeasureInstr: 500_000,

		L1Bytes:     64 * 1024,
		L1Ways:      4,
		L1HitCycles: 3,

		L2Bytes:                4 << 20,
		L2Ways:                 8,
		L2TagsPerSet:           cache.DefaultTagsPerSet,
		L2SegsPerSet:           cache.DefaultSegsPerSet,
		L2Banks:                8,
		L2HitCycles:            15,
		DecompressionCycles:    5,
		L2BankOccupancy:        4,
		UncompressedVictimTags: 4,

		Memory:   memory.DefaultConfig(),
		CPU:      cpu.DefaultConfig(),
		ClockGHz: 5.0,

		CheckLevel: audit.FromEnv(),
	}
}

// WithMechanisms returns a copy with the four toggles set: a compact
// helper for the experiment grids.
func (c Config) WithMechanisms(cacheCompr, linkCompr, pref, adaptive bool) Config {
	c.CacheCompression = cacheCompr
	c.LinkCompression = linkCompr
	c.Prefetching = pref
	c.AdaptivePrefetch = adaptive
	return c
}

// Validate reports the first configuration error.
func (c Config) Validate() error {
	if _, err := workload.ByName(c.Benchmark); err != nil {
		return err
	}
	switch {
	case c.Cores < 1 || c.Cores > 32:
		return fmt.Errorf("sim: cores %d out of range", c.Cores)
	case c.MeasureInstr == 0:
		return fmt.Errorf("sim: MeasureInstr must be positive")
	case c.L1Bytes <= 0 || c.L1Ways <= 0:
		return fmt.Errorf("sim: invalid L1 geometry")
	case c.L1HitCycles <= 0:
		return fmt.Errorf("sim: L1 hit latency must be positive")
	case c.UncompressedVictimTags < 0:
		return fmt.Errorf("sim: UncompressedVictimTags must be non-negative")
	case c.L2Bytes <= 0 || c.L2Ways <= 0 || c.L2TagsPerSet <= 0 || c.L2SegsPerSet < 8:
		return fmt.Errorf("sim: invalid L2 geometry")
	case c.L2Banks <= 0:
		return fmt.Errorf("sim: L2 banks must be positive")
	case c.L2HitCycles <= 0 || c.DecompressionCycles < 0 || c.L2BankOccupancy < 0:
		return fmt.Errorf("sim: invalid L2 latencies")
	case c.ClockGHz <= 0:
		return fmt.Errorf("sim: clock must be positive")
	case c.AdaptivePrefetch && !c.Prefetching:
		return fmt.Errorf("sim: AdaptivePrefetch requires Prefetching")
	case !c.CheckLevel.Valid():
		return fmt.Errorf("sim: invalid CheckLevel %d", c.CheckLevel)
	}
	// Kind names are validated against their registries, so new codecs,
	// prefetchers and reference sources cannot drift out of validation.
	if _, err := codec.ByName(c.Codec); err != nil {
		return err
	}
	if _, err := prefetch.ByName(c.PrefetcherKind); err != nil {
		return err
	}
	if _, err := workload.SourceByName(c.RefSource); err != nil {
		return err
	}
	// The decompression latency must be exactly representable in the
	// integer tick domain, or the priced latency would silently drift
	// from the configured (and reported) value. Any multiple of 2^-24
	// cycles passes, so whole, half and quarter cycles are all fine.
	if _, ok := timing.ExactCycles(c.DecompressionCycles); !ok {
		return fmt.Errorf("sim: DecompressionCycles %g is not representable in the tick domain (use a multiple of 2^-%d cycles)",
			c.DecompressionCycles, timing.SubCycleBits)
	}
	if err := c.Memory.Validate(); err != nil {
		return err
	}
	if err := c.CPU.Validate(); err != nil {
		return err
	}
	if c.StateFault != "" {
		if _, _, err := parseStateFault(c.StateFault); err != nil {
			return err
		}
	}
	return nil
}

// MechanismLabel names the active mechanism combination, matching the
// paper's figure legends. Every distinct combination gets a distinct
// label: the adaptive cases mirror the plain-prefetching taxonomy
// (adaptive-pf+compression keeps its historical name for the full
// combination; the partial-compression variants name which side is on).
func (c Config) MechanismLabel() string {
	switch {
	case c.AdaptivePrefetch && c.CacheCompression && c.LinkCompression:
		return "adaptive-pf+compression"
	case c.AdaptivePrefetch && c.CacheCompression:
		return "adaptive-pf+cache-compr"
	case c.AdaptivePrefetch && c.LinkCompression:
		return "adaptive-pf+link-compr"
	case c.AdaptivePrefetch:
		return "adaptive-pf"
	case c.Prefetching && c.CacheCompression && c.LinkCompression:
		return "pf+compression"
	case c.Prefetching && c.CacheCompression:
		return "pf+cache-compr"
	case c.Prefetching && c.LinkCompression:
		return "pf+link-compr"
	case c.Prefetching:
		return "pf"
	case c.CacheCompression && c.LinkCompression:
		return "compression"
	case c.CacheCompression:
		return "cache-compr"
	case c.LinkCompression:
		return "link-compr"
	default:
		return "base"
	}
}
