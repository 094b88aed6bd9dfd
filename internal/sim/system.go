package sim

import (
	"math/rand"

	"cmpsim/internal/audit"
	"cmpsim/internal/cache"
	"cmpsim/internal/codec"
	"cmpsim/internal/coherence"
	"cmpsim/internal/memory"
	"cmpsim/internal/prefetch"
	"cmpsim/internal/timing"
	"cmpsim/internal/workload"
)

// Compile-time checks that the concrete stages satisfy the stage seams.
var (
	_ memService = (*memory.System)(nil)
	_ l2Service  = (*l2Stage)(nil)
)

// System is one assembled CMP instance: the coherent cache hierarchy
// plus the three timing stages (frontEnd, l2Stage, memory.System) and
// the attribution counters the Metrics are computed from.
type System struct {
	cfg   Config
	prof  workload.Profile
	codec codec.Codec // resolved from Config.Codec
	data  *workload.DataModel

	h   *coherence.Hierarchy
	mem *memory.System // concrete memory stage (counter snapshots)
	fe  *frontEnd      // core issue + generators + prefetch engines
	l2  l2Service      // shared-L2 pricing seam
	l2s *l2Stage       // the same stage, concrete (hit stats, audit)

	// inflight is the MSHR-equivalent table of outstanding prefetch
	// fills: block → completion tick.
	inflight map[cache.BlockAddr]timing.Tick

	dirtyRng *rand.Rand

	// Simulator-level counters (cumulative; windowed via totals snapshots).
	pfIssued, pfHits, pfPartial, pfRedundant [4]uint64
	pfAllocsCount                            [4]uint64

	steps       uint64
	fastSteps   uint64 // events retired via the L1-hit fast path
	fastOK      bool   // audit off: fast path permitted (telemetry checked per step)
	effSizeSum  uint64 // valid-line bytes summed over samples (integer: no float accumulation order)
	effSizeN    uint64
	measuring   bool
	missProfile map[cache.BlockAddr]uint32
	ref         workload.Ref

	tel *telemetry // nil unless Config.TelemetryInterval > 0

	// Runtime self-checking (see audit.go); aud is nil at CheckLevel Off.
	aud        *audit.Auditor
	checkEvery uint64
	faultName  string // state-fault injection, "" = none
	faultAt    uint64
}

// NewSystem builds a system for cfg; the workload's BaseCPI overrides
// the CPU config's.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	prof, err := workload.ByName(cfg.Benchmark)
	if err != nil {
		return nil, err
	}
	memCfg := cfg.Memory
	memCfg.LinkCompression = cfg.LinkCompression
	cdc := codec.MustByName(cfg.Codec) // validated above
	s := &System{
		cfg:      cfg,
		prof:     prof,
		codec:    cdc,
		data:     workload.NewDataModelCodec(prof, cfg.Seed, cdc),
		mem:      memory.New(memCfg),
		inflight: make(map[cache.BlockAddr]timing.Tick),
		dirtyRng: rand.New(rand.NewSource(cfg.Seed ^ 0x5EED)),
	}
	s.l2s, err = newL2Stage(cfg, s.mem)
	if err != nil {
		return nil, err
	}
	s.l2 = s.l2s

	var l2 cache.L2
	if cfg.CacheCompression {
		l2 = cache.NewCompressedL2(cfg.L2Bytes, cfg.L2TagsPerSet, cfg.L2SegsPerSet)
	} else {
		victims := 0
		if cfg.AdaptivePrefetch {
			victims = cfg.UncompressedVictimTags
		}
		l2 = cache.NewUncompressedL2(cfg.L2Bytes, cfg.L2Ways, victims)
	}
	s.h = coherence.New(coherence.Config{
		Cores:   cfg.Cores,
		L1Bytes: cfg.L1Bytes,
		L1Ways:  cfg.L1Ways,
		L2:      l2,
		Size:    s.data.SizeOf,
	})
	s.fe = newFrontEnd(cfg, prof)
	if cfg.CollectMissProfile {
		s.missProfile = make(map[cache.BlockAddr]uint32)
	}
	s.initAudit(cfg)
	s.fastOK = s.aud == nil && s.faultAt == 0
	return s, nil
}

// Run executes warmup then the measurement window and returns Metrics.
// An audit violation (CheckLevel > Off, or an injected StateFault that
// a check catches) is returned as a *audit.Violation error; any other
// panic propagates unchanged.
func Run(cfg Config) (m Metrics, err error) {
	s, err := NewSystem(cfg)
	if err != nil {
		return Metrics{}, err
	}
	defer func() {
		if r := recover(); r != nil {
			v, ok := r.(*audit.Violation)
			if !ok {
				panic(r)
			}
			m, err = Metrics{}, v
		}
	}()
	return s.run(), nil
}

// maxCoreNow returns the furthest-ahead core clock (audit and
// telemetry timebase).
func (s *System) maxCoreNow() timing.Tick { return s.fe.maxNow() }

// Close releases the System. It is a no-op — a System holds no
// goroutines or handles — kept so callers can release a System they
// drove through phase/step without knowing its internals.
func (s *System) Close() {}

func (s *System) run() Metrics {
	s.phase(s.cfg.WarmupInstr)
	s.auditSweep() // warmup boundary
	start := s.rawTotals()
	startNow := make([]timing.Tick, s.fe.count())
	for i, c := range s.fe.cores {
		startNow[i] = c.Now
	}
	s.measuring = true
	if s.cfg.TelemetryInterval > 0 {
		s.tel = newTelemetry(s.cfg.TelemetryInterval, start, s.fe.maxNow())
	}
	s.phase(s.cfg.MeasureInstr)
	s.fe.drain()
	s.measuring = false
	s.auditSweep() // run end
	end := s.rawTotals()
	d := end.sub(start)

	var maxElapsed timing.Tick
	for i, c := range s.fe.cores {
		if e := c.Now - startNow[i]; e > maxElapsed {
			maxElapsed = e
		}
	}

	m := Metrics{
		Benchmark:    s.cfg.Benchmark,
		Label:        s.cfg.MechanismLabel(),
		Cores:        s.cfg.Cores,
		Seed:         s.cfg.Seed,
		Instructions: d.instr,
		Cycles:       maxElapsed.Cycles(),
		Seconds:      maxElapsed.Cycles() / (s.cfg.ClockGHz * 1e9),
		L1IAccesses:  d.l1iAcc, L1IMisses: d.l1iMiss,
		L1DAccesses: d.l1dAcc, L1DMisses: d.l1dMiss,
		L2Accesses: d.l2Acc, L2Misses: d.l2Miss,
		L2CompressedHits:     d.l2ComprHits,
		L2Evictions:          d.l2Evict,
		L2UselessPfEvictions: d.l2Useless,
		MemFetches:           d.memFetches,
		MemWritebacks:        d.memWritebacks,
		OffChipBytes:         d.linkBytes,
		LinkQueueDelay:       d.linkQDelay.Cycles(),
		DRAMQueueDelay:       d.dramQDelay.Cycles(),
		StoreUpgrades:        d.storeUpgrades,
		DirtyForwards:        d.dirtyForwards,
		Invalidations:        d.invals,
		Adaptive:             AdaptiveMetrics{Useful: d.adUseful, Useless: d.adUseless, Harmful: d.adHarmful, FinalCapL2: s.fe.adL2.Cap()},
		MissProfile:          s.missProfile,
	}
	if maxElapsed > 0 {
		m.IPC = float64(d.instr) / maxElapsed.Cycles()
		m.BandwidthGBps = float64(d.linkBytes) / 1e9 / m.Seconds
		m.LinkUtilization = float64(d.linkBusy) / float64(maxElapsed)
	}
	if d.l2Acc > 0 {
		m.L2MissRate = float64(d.l2Miss) / float64(d.l2Acc)
	}
	if d.instr > 0 {
		m.L2MissesPerKI = float64(d.l2Miss) * 1000 / float64(d.instr)
	}
	if d.effSizeN > 0 {
		m.EffectiveL2Bytes = float64(d.effSizeSum) / float64(d.effSizeN)
		m.CompressionRatio = m.EffectiveL2Bytes / float64(s.cfg.L2Bytes)
	}
	if d.hitLatN > 0 {
		m.MeanL2HitLatency = d.hitLatSum.Cycles() / float64(d.hitLatN)
	}
	for src := 0; src < 4; src++ {
		m.Engines[src] = EngineMetrics{
			Prefetches:   d.pfIssued[src],
			Redundant:    d.pfRedundant[src],
			PrefetchHits: d.pfHits[src],
			PartialHits:  d.pfPartial[src],
			StreamAllocs: d.pfAllocs[src],
		}
	}
	for c := range s.fe.cores {
		m.Adaptive.FinalCapL1I += float64(s.fe.adL1I[c].Cap()) / float64(s.fe.count())
		m.Adaptive.FinalCapL1D += float64(s.fe.adL1D[c].Cap()) / float64(s.fe.count())
	}
	m.Engines[coherence.PfL1I].DemandMisses = d.l1iMiss
	m.Engines[coherence.PfL1D].DemandMisses = d.l1dMiss
	m.Engines[coherence.PfL2].DemandMisses = d.l2Miss
	if s.tel != nil {
		m.Timeline = s.finishTelemetry(end)
	}
	return m
}

// phase runs every core for n further retired instructions.
func (s *System) phase(n uint64) {
	if n == 0 {
		return
	}
	targets := make([]uint64, s.fe.count())
	for i, c := range s.fe.cores {
		targets[i] = c.Instrs + n
	}
	for {
		c := s.fe.nextCore(targets)
		if c == -1 {
			return
		}
		s.step(c)
	}
}

// step advances core c by one generated reference.
func (s *System) step(c int) {
	s.steps++
	if s.aud != nil || s.faultAt != 0 {
		s.auditStep()
	}
	if s.steps&0x1FFF == 0 {
		s.sampleEffectiveSize()
		if s.steps&0xFFFFF == 0 {
			s.pruneInflight()
		}
	}
	core := s.fe.cores[c]
	s.ref = *s.fe.nextRef(c)
	core.Advance(uint64(s.ref.Gap))
	if s.tel != nil {
		s.tick(uint64(s.ref.Gap))
	}
	now := core.Now
	kind := s.ref.Kind
	addr := s.ref.Addr

	if s.aud != nil {
		s.aud.OnLoad(now, c, addr, s.data.Version(addr))
	}
	if kind == coherence.Store && s.dirtyRng.Float64() < s.prof.StoreDirtyProb {
		s.data.Dirty(addr)
		if s.aud != nil {
			s.aud.OnStore(addr)
		}
	}

	// Fast path: with auditing and telemetry off, a plain L1 hit (no
	// prefetch bit to consume, no store upgrade) retires here without
	// building an AccessResult or touching the staged L2/memory seams.
	// Prefetch training still observes the access: active streams
	// advance on every demand reference, hit or miss.
	if s.fastOK && s.tel == nil && s.h.FastHit(c, kind, addr) {
		s.fastSteps++
		if s.cfg.Prefetching {
			eng := s.fe.engL1D[c]
			src := coherence.PfL1D
			if kind == coherence.IFetch {
				eng = s.fe.engL1I[c]
				src = coherence.PfL1I
			}
			if reqs := eng.OnAccess(addr); len(reqs) != 0 {
				s.issueL1Prefetches(c, kind, src, now, reqs)
			}
		}
		return
	}

	r := s.h.Access(c, kind, addr)

	// Adaptive-controller events and per-engine attribution.
	ad := s.fe.adL1D[c]
	eng := s.fe.engL1D[c]
	if kind == coherence.IFetch {
		ad = s.fe.adL1I[c]
		eng = s.fe.engL1I[c]
	}
	partial := s.resolveInflight(addr, now, r)
	if r.L1PrefetchHit {
		ad.Useful()
	}
	if r.L2PrefetchHit {
		s.fe.adL2.Useful()
	}
	for i := 0; i < r.L1UselessEvict; i++ {
		ad.Useless()
	}
	for i := 0; i < r.L2UselessEvict; i++ {
		s.fe.adL2.Useless()
	}
	if r.L1Harmful {
		ad.Harmful()
	}
	if r.L2Harmful {
		s.fe.adL2.Harmful()
	}

	// Timing.
	blocking := s.ref.Blocking || kind == coherence.IFetch
	if r.L1Hit {
		if partial > now {
			core.IssueMiss(partial, blocking)
		}
	} else {
		done := s.l2.Demand(now, addr, r)
		if partial > done {
			done = partial
		}
		for _, wb := range r.Writebacks {
			s.auditWriteback(now, wb)
		}
		if r.MemFetch && s.measuring && s.missProfile != nil {
			s.missProfile[addr]++
		}
		core.IssueMiss(done, blocking)
	}

	if s.cfg.Prefetching {
		s.drivePrefetchers(c, kind, addr, now, &r, eng)
	}
}

// resolveInflight handles partial hits: the first demand reference to a
// block whose prefetch is still in flight waits for it. Returns the
// in-flight completion tick (or 0) and updates attribution counters.
func (s *System) resolveInflight(addr cache.BlockAddr, now timing.Tick, r coherence.AccessResult) timing.Tick {
	src := coherence.PfNone
	if r.L1PrefetchHit {
		src = r.L1PfBy
	} else if r.L2PrefetchHit {
		src = r.L2PfBy
	}
	if src == coherence.PfNone {
		return 0
	}
	t, ok := s.inflight[addr]
	if ok {
		delete(s.inflight, addr)
	}
	if ok && t > now {
		s.pfPartial[src]++
		return t
	}
	s.pfHits[src]++
	return 0
}

// drivePrefetchers feeds the three engines with this access and issues
// whatever they request.
func (s *System) drivePrefetchers(c int, kind coherence.Kind, addr cache.BlockAddr, now timing.Tick, r *coherence.AccessResult, eng prefetch.Prefetcher) {
	src := coherence.PfL1D
	if kind == coherence.IFetch {
		src = coherence.PfL1I
	}
	// L1 engine: stream advance on every access; training on misses.
	reqs := eng.OnAccess(addr)
	if len(reqs) == 0 && !r.L1Hit {
		allocs := eng.Allocations()
		reqs = eng.OnMiss(addr)
		if eng.Allocations() > allocs {
			s.pfAllocsDelta(src)
			// An L1 stream triggers an L2 stream along the same stride.
			l2reqs := s.fe.engL2[c].TriggerStream(addr, eng.StreamStride())
			if len(l2reqs) > 0 {
				s.pfAllocsDelta(coherence.PfL2)
			}
			s.issueL2Prefetches(c, now, l2reqs)
			// reqs still aliases eng's buffer: TriggerStream used engL2's.
		}
	}
	s.issueL1Prefetches(c, kind, src, now, reqs)

	// L2 engine sees the L2-level reference stream (L1 misses).
	if !r.L1Hit {
		l2eng := s.fe.engL2[c]
		l2reqs := l2eng.OnAccess(addr)
		if len(l2reqs) == 0 && !r.L2Hit {
			allocs := l2eng.Allocations()
			l2reqs = l2eng.OnMiss(addr)
			if l2eng.Allocations() > allocs {
				s.pfAllocsDelta(coherence.PfL2)
			}
		}
		s.issueL2Prefetches(c, now, l2reqs)
	}
}

// pfAllocsDelta tracks stream allocations per engine class.
func (s *System) pfAllocsDelta(src coherence.PfSource) {
	s.pfAllocsCount[src]++
}

// issueL1Prefetches sends L1 prefetch fills through the hierarchy with
// full timing (bank, link, DRAM) and in-flight tracking.
func (s *System) issueL1Prefetches(c int, kind coherence.Kind, src coherence.PfSource, now timing.Tick, reqs []cache.BlockAddr) {
	pfKind := coherence.Load
	if kind == coherence.IFetch {
		pfKind = coherence.IFetch
	}
	ad := s.fe.adL1D[c]
	if kind == coherence.IFetch {
		ad = s.fe.adL1I[c]
	}
	for _, a := range reqs {
		out := s.h.PrefetchL1(c, pfKind, a, src)
		if out.AlreadyPresent {
			s.pfRedundant[src]++
			continue
		}
		s.pfIssued[src]++
		if out.L2PrefetchHit {
			// The L1 prefetch consumed an L2 prefetched line: credit the
			// prefetcher that staged it and its adaptive controller.
			if t, ok := s.inflight[a]; ok && t > now {
				s.pfPartial[out.L2PfBy]++
				delete(s.inflight, a)
			} else {
				s.pfHits[out.L2PfBy]++
			}
			s.fe.adL2.Useful()
		}
		done := s.l2.FillForL1(now, a, out)
		for _, wb := range out.Writebacks {
			s.auditWriteback(now, wb)
		}
		s.inflight[a] = done
		for i := 0; i < out.L1UselessEvict; i++ {
			ad.Useless()
		}
		for i := 0; i < out.L2UselessEvict; i++ {
			s.fe.adL2.Useless()
		}
	}
}

// issueL2Prefetches sends L2 prefetch fills to memory.
func (s *System) issueL2Prefetches(c int, now timing.Tick, reqs []cache.BlockAddr) {
	for _, a := range reqs {
		out := s.h.PrefetchL2(c, a, coherence.PfL2)
		if out.AlreadyPresent {
			s.pfRedundant[coherence.PfL2]++
			continue
		}
		s.pfIssued[coherence.PfL2]++
		done := s.l2.FillForL2(now, a, out.FetchSegs)
		for _, wb := range out.Writebacks {
			s.auditWriteback(now, wb)
		}
		s.inflight[a] = done
		for i := 0; i < out.L2UselessEvict; i++ {
			s.fe.adL2.Useless()
		}
	}
}

// sampleEffectiveSize accumulates the effective-cache-size time average
// (only while measuring, matching the paper's periodic measurement).
func (s *System) sampleEffectiveSize() {
	if !s.measuring {
		return
	}
	s.effSizeSum += uint64(s.h.L2.ValidLines() * cache.LineBytes)
	s.effSizeN++
}

// pruneInflight drops completed in-flight entries so the map stays small.
func (s *System) pruneInflight() {
	minNow := s.fe.minNow()
	for a, t := range s.inflight {
		if t < minNow {
			delete(s.inflight, a)
		}
	}
}

// rawTotals snapshots every cumulative counter.
func (s *System) rawTotals() totals {
	var t totals
	for i := range s.fe.cores {
		t.instr += s.fe.cores[i].Instrs
		st := &s.h.L1I[i].Stats
		t.l1iAcc += st.Accesses
		t.l1iMiss += st.Misses
		sd := &s.h.L1D[i].Stats
		t.l1dAcc += sd.Accesses
		t.l1dMiss += sd.Misses
		t.adUseful += s.fe.adL1I[i].UsefulEvents + s.fe.adL1D[i].UsefulEvents
		t.adUseless += s.fe.adL1I[i].UselessEvents + s.fe.adL1D[i].UselessEvents
		t.adHarmful += s.fe.adL1I[i].HarmfulEvents + s.fe.adL1D[i].HarmfulEvents
	}
	l2 := s.h.L2.BaseStats()
	t.l2Acc = l2.Accesses
	t.l2Miss = l2.Misses
	t.l2Evict = l2.Evictions
	t.l2Useless = l2.UselessPf
	t.l2ComprHits = s.h.L2.CompressedHitCount()
	t.adUseful += s.fe.adL2.UsefulEvents
	t.adUseless += s.fe.adL2.UselessEvents
	t.adHarmful += s.fe.adL2.HarmfulEvents
	t.memFetches = s.mem.Fetches
	t.memWritebacks = s.mem.Writebacks
	t.linkBytes = s.mem.Data.TotalBytes // demand metric: data-bus bytes (addresses ride separate pins)
	t.linkBusy = s.mem.DataBusyTicks()
	t.linkQDelay = s.mem.Data.QueueDelay()
	t.dramQDelay = s.mem.DRAMWaits
	t.effSizeSum = s.effSizeSum
	t.effSizeN = s.effSizeN
	t.hitLatSum, t.hitLatN = s.l2s.hitStats()
	t.pfIssued = s.pfIssued
	t.pfHits = s.pfHits
	t.pfPartial = s.pfPartial
	t.pfRedundant = s.pfRedundant
	t.pfAllocs = s.pfAllocsCount
	t.storeUpgrades = s.h.StoreUpgrades
	t.dirtyForwards = s.h.DirtyForwards
	t.invals = s.h.CoherenceInval + s.h.InclusionInval
	return t
}
