package sim

import (
	"cmpsim/internal/cache"
	"cmpsim/internal/coherence"
	"cmpsim/internal/timing"
)

// EngineMetrics reports one prefetcher class's Table 4 measures,
// aggregated over the cores.
type EngineMetrics struct {
	Prefetches   uint64 // issued (redundant drops excluded)
	Redundant    uint64 // dropped: line already present
	PrefetchHits uint64 // first demand reference to a prefetched block
	PartialHits  uint64 // demand arrived while the block was in flight
	DemandMisses uint64 // demand misses of the associated cache(s)
	StreamAllocs uint64
}

// RatePer1000 is prefetches per 1000 instructions (EQ 2).
func (e EngineMetrics) RatePer1000(instructions uint64) float64 {
	if instructions == 0 {
		return 0
	}
	return float64(e.Prefetches) * 1000 / float64(instructions)
}

// Coverage is EQ 3: PrefetchHits / (PrefetchHits + DemandMisses).
func (e EngineMetrics) Coverage() float64 {
	d := float64(e.PrefetchHits + e.DemandMisses)
	if d == 0 {
		return 0
	}
	return float64(e.PrefetchHits) / d
}

// Accuracy is EQ 4: PrefetchHits / TotalPrefetches.
func (e EngineMetrics) Accuracy() float64 {
	if e.Prefetches == 0 {
		return 0
	}
	return float64(e.PrefetchHits) / float64(e.Prefetches)
}

// AdaptiveMetrics aggregates the saturating-counter event streams and
// the controllers' final counter values (mean over cores for the L1s).
type AdaptiveMetrics struct {
	Useful  uint64
	Useless uint64
	Harmful uint64

	FinalCapL1I float64
	FinalCapL1D float64
	FinalCapL2  int
}

// Metrics is the result of one Run: every quantity the paper's
// evaluation reports, measured over the post-warmup window. This is
// the reporting boundary of the tick domain: all simulation time is
// integer timing.Tick internally and converts to float64 cycles
// exactly here (and in the interval telemetry), never the other way.
type Metrics struct {
	Benchmark string
	Label     string
	Cores     int
	Seed      int64

	// Work and time.
	Instructions uint64  // total over cores (measurement window)
	Cycles       float64 // runtime: max per-core elapsed cycles
	Seconds      float64
	IPC          float64 // aggregate instructions per cycle

	// Cache behaviour.
	L1IAccesses, L1IMisses uint64
	L1DAccesses, L1DMisses uint64
	L2Accesses, L2Misses   uint64
	L2MissRate             float64
	L2MissesPerKI          float64
	L2CompressedHits       uint64
	L2Evictions            uint64  // lines evicted from the L2
	L2UselessPfEvictions   uint64  // prefetched lines evicted unreferenced (Table 4 analysis)
	MeanL2HitLatency       float64 // includes decompression penalties

	// Compression.
	EffectiveL2Bytes float64 // time-averaged valid lines × 64
	CompressionRatio float64 // effective / physical

	// Off-chip traffic.
	OffChipBytes    uint64
	BandwidthGBps   float64 // paper's demand metric on infinite-BW runs
	LinkUtilization float64
	LinkQueueDelay  float64 // cycles messages waited for the pins (measurement window)
	DRAMQueueDelay  float64 // cycles requests waited on busy banks (measurement window)
	MemFetches      uint64
	MemWritebacks   uint64

	// Prefetching (indexed by coherence.PfSource: L1I, L1D, L2).
	Engines  [4]EngineMetrics
	Adaptive AdaptiveMetrics

	// Coherence activity.
	StoreUpgrades uint64
	DirtyForwards uint64
	Invalidations uint64

	// Per-block L2 demand-miss profile (nil unless requested).
	MissProfile map[cache.BlockAddr]uint32

	// Timeline holds one sample per TelemetryInterval aggregate
	// instructions of the measurement window (nil when disabled).
	Timeline []IntervalSample
}

// Engine returns the metrics for one prefetcher class.
func (m *Metrics) Engine(src coherence.PfSource) EngineMetrics { return m.Engines[src] }

// totals is the flat counter snapshot used to compute measurement-window
// deltas (snapshot at measurement start, subtract at end). The windowing
// contract: no Metrics field may read a cumulative simulator counter
// directly — every reported quantity is a delta of two totals snapshots,
// so warmup activity can never leak into reported numbers. The interval
// telemetry reuses the same snapshots at a finer grain.
type totals struct {
	instr uint64

	l1iAcc, l1iMiss    uint64
	l1dAcc, l1dMiss    uint64
	l2Acc, l2Miss      uint64
	l2ComprHits        uint64
	l2Evict, l2Useless uint64

	memFetches, memWritebacks uint64
	linkBytes                 uint64
	linkBusy                  timing.Tick
	linkQDelay                timing.Tick // data-channel queueing (was read cumulatively pre-fix)
	dramQDelay                timing.Tick // DRAM bank queueing (was read cumulatively pre-fix)

	effSizeSum uint64 // effective-L2-size accumulator (bytes × samples)
	effSizeN   uint64
	hitLatSum  timing.Tick // L2 hit latency accumulator (ticks × hits)
	hitLatN    uint64

	pfIssued, pfHits, pfPartial, pfRedundant, pfAllocs [4]uint64

	adUseful, adUseless, adHarmful uint64

	storeUpgrades, dirtyForwards, invals uint64
}

// sub returns t - o field-wise.
func (t totals) sub(o totals) totals {
	r := t
	r.instr -= o.instr
	r.l1iAcc -= o.l1iAcc
	r.l1iMiss -= o.l1iMiss
	r.l1dAcc -= o.l1dAcc
	r.l1dMiss -= o.l1dMiss
	r.l2Acc -= o.l2Acc
	r.l2Miss -= o.l2Miss
	r.l2ComprHits -= o.l2ComprHits
	r.l2Evict -= o.l2Evict
	r.l2Useless -= o.l2Useless
	r.memFetches -= o.memFetches
	r.memWritebacks -= o.memWritebacks
	r.linkBytes -= o.linkBytes
	r.linkBusy -= o.linkBusy
	r.linkQDelay -= o.linkQDelay
	r.dramQDelay -= o.dramQDelay
	r.effSizeSum -= o.effSizeSum
	r.effSizeN -= o.effSizeN
	r.hitLatSum -= o.hitLatSum
	r.hitLatN -= o.hitLatN
	for i := range r.pfIssued {
		r.pfIssued[i] -= o.pfIssued[i]
		r.pfHits[i] -= o.pfHits[i]
		r.pfPartial[i] -= o.pfPartial[i]
		r.pfRedundant[i] -= o.pfRedundant[i]
		r.pfAllocs[i] -= o.pfAllocs[i]
	}
	r.adUseful -= o.adUseful
	r.adUseless -= o.adUseless
	r.adHarmful -= o.adHarmful
	r.storeUpgrades -= o.storeUpgrades
	r.dirtyForwards -= o.dirtyForwards
	r.invals -= o.invals
	return r
}
