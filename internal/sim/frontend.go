package sim

import (
	"cmpsim/internal/cpu"
	"cmpsim/internal/prefetch"
	"cmpsim/internal/timing"
	"cmpsim/internal/workload"
)

// refBatch is the per-core generation window: references are produced
// in blocks of this size, so a generator runs at most refBatch
// references ahead of its core.
const refBatch = 256

// frontEnd is the per-core issue stage: the bounded run-ahead cores,
// their reference generators, and the prefetch machinery that observes
// each core's access stream — per-core L1I/L1D/L2 engines plus the
// adaptive controllers (one per L1 cache, a single shared one for the
// L2, paper §3). It owns everything indexed by core, so the rest of
// the simulator treats the core count as a free parameter.
type frontEnd struct {
	cores []*cpu.Core
	gens  []workload.RefSource

	engL1I, engL1D, engL2 []prefetch.Prefetcher
	adL1I, adL1D          []*prefetch.Adaptive
	adL2                  *prefetch.Adaptive

	// Batched issue state: each core consumes references from batch[c]
	// (filled refBatch at a time) instead of calling Generator.Next per
	// step.
	batch [][]workload.Ref
	pos   []int
	n     []int
}

// newFrontEnd builds the per-core stage; the workload's BaseCPI
// overrides the CPU config's.
func newFrontEnd(cfg Config, prof workload.Profile) *frontEnd {
	l1cfg := prefetch.L1Config()
	if cfg.L1PrefetchDepth > 0 {
		l1cfg.StartupDepth = cfg.L1PrefetchDepth
	}
	l2cfg := prefetch.L2Config()
	if cfg.L2PrefetchDepth > 0 {
		l2cfg.StartupDepth = cfg.L2PrefetchDepth
	}
	cpuCfg := cfg.CPU
	cpuCfg.BaseCPI = prof.BaseCPI
	// Both kinds resolve through their registries; Config.Validate has
	// already vetted the names, so unknown kinds panic like an invalid
	// profile would.
	newEngine := prefetch.MustByName(cfg.PrefetcherKind)
	fe := &frontEnd{}
	for c := 0; c < cfg.Cores; c++ {
		fe.cores = append(fe.cores, cpu.New(cpuCfg))
		fe.gens = append(fe.gens, workload.MustNewSource(cfg.RefSource, prof, c, cfg.Seed))
		fe.engL1I = append(fe.engL1I, newEngine(l1cfg))
		fe.engL1D = append(fe.engL1D, newEngine(l1cfg))
		fe.engL2 = append(fe.engL2, newEngine(l2cfg))
		fe.adL1I = append(fe.adL1I, prefetch.NewAdaptive(l1cfg.StartupDepth))
		fe.adL1D = append(fe.adL1D, prefetch.NewAdaptive(l1cfg.StartupDepth))
	}
	fe.adL2 = prefetch.NewAdaptive(l2cfg.StartupDepth)
	if cfg.AdaptivePrefetch {
		for c := 0; c < cfg.Cores; c++ {
			fe.engL1I[c].SetCap(fe.adL1I[c].Cap)
			fe.engL1D[c].SetCap(fe.adL1D[c].Cap)
			fe.engL2[c].SetCap(fe.adL2.Cap)
		}
	}
	fe.batch = make([][]workload.Ref, cfg.Cores)
	fe.pos = make([]int, cfg.Cores)
	fe.n = make([]int, cfg.Cores)
	for c := range fe.batch {
		fe.batch[c] = make([]workload.Ref, refBatch)
	}
	return fe
}

// nextRef returns the next reference for core c, refilling the core's
// batch when exhausted. The returned pointer is valid until the next
// nextRef call for the same core.
func (fe *frontEnd) nextRef(c int) *workload.Ref {
	if fe.pos[c] == fe.n[c] {
		fe.refill(c)
	}
	r := &fe.batch[c][fe.pos[c]]
	fe.pos[c]++
	return r
}

// refill replenishes core c's batch from its generator.
func (fe *frontEnd) refill(c int) {
	fe.n[c] = fe.gens[c].NextN(fe.batch[c])
	fe.pos[c] = 0
}

// count returns the number of cores.
func (fe *frontEnd) count() int { return len(fe.cores) }

// maxNow returns the furthest-ahead core clock, the simulator's notion
// of elapsed wall time (Metrics.Cycles uses the same basis).
func (fe *frontEnd) maxNow() timing.Tick {
	max := fe.cores[0].Now
	for _, c := range fe.cores[1:] {
		if c.Now > max {
			max = c.Now
		}
	}
	return max
}

// minNow returns the furthest-behind core clock (in-flight pruning
// horizon: anything completed before it can never be referenced as
// pending again).
func (fe *frontEnd) minNow() timing.Tick {
	min := fe.cores[0].Now
	for _, c := range fe.cores[1:] {
		if c.Now < min {
			min = c.Now
		}
	}
	return min
}

// drain waits out every core's outstanding misses (end of a phase).
func (fe *frontEnd) drain() {
	for _, c := range fe.cores {
		c.Drain()
	}
}
