package sim

import (
	"math"
	"math/rand"
	"sync"

	"cmpsim/internal/audit"
	"cmpsim/internal/cache"
	"cmpsim/internal/codec"
	"cmpsim/internal/coherence"
	"cmpsim/internal/memory"
	"cmpsim/internal/prefetch"
	"cmpsim/internal/timing"
	"cmpsim/internal/workload"
)

// System is one assembled CMP instance: the coherent cache hierarchy,
// three timing stages and the attribution counters the Metrics are
// computed from. The stages are the front end (frontEnd: core issue,
// reference generation, prefetch engines), the shared L2 (l2Stage:
// banked, compressed or plain) and off-chip memory (memory.System: pin
// link and DRAM banks). Each stage owns its timing state
// (timing.Resource / timing.Banks / timing.Port) and its latency
// constants, already quantized to ticks; System only orchestrates the
// event order and the attribution counters. Core and bank counts are
// free parameters: nothing assumes a specific core count or a
// power-of-two bank geometry.
type System struct {
	cfg   Config
	prof  workload.Profile
	codec codec.Codec // resolved from Config.Codec
	// data synthesizes block contents and prices their sizes; nil when
	// nothing reads them (see readsSizes).
	data *workload.DataModel

	h   *coherence.Hierarchy
	mem *memory.System // off-chip memory stage
	fe  *frontEnd      // core issue + generators + prefetch engines
	l2  *l2Stage       // shared-L2 timing stage

	// inflight is the MSHR-equivalent table of outstanding prefetch
	// fills: block → completion tick.
	inflight inflightTable

	dirtyRng *rand.Rand // decides which stores change contents; nil without data

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

// NewSystem builds a system for cfg in newly allocated memory; the
// workload's BaseCPI overrides the CPU config's.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newSystem(cfg, nil, nil)
}

// storage is what a System whose run returned normally leaves for the
// next one to be built in (DESIGN.md §6f "Recycled storage"): its
// caches and its in-flight slots. It keeps nothing else of the run, so
// a pooled storage holds no data model, size table or auditor alive.
type storage struct {
	h        *coherence.Hierarchy // its caches only: L1I, L1D and L2
	inflight []inflightSlot
}

// storages is the process-wide pool of storage that RunShared builds
// its Systems in and hands back to. The GC empties a sync.Pool, so it
// needs no cap.
var storages sync.Pool

// recyclable returns the storage s leaves for the next System.
func (s *System) recyclable() *storage {
	return &storage{
		h:        &coherence.Hierarchy{L1I: s.h.L1I, L1D: s.h.L1D, L2: s.h.L2},
		inflight: s.inflight.slots,
	}
}

// newSystem builds a system for a validated cfg whose data model, if it
// has one, shares version-0 block sizes through sizes (nil keeps them
// private), in old's storage (nil allocates it).
func newSystem(cfg Config, sizes *workload.SizeRegistry, old *storage) (*System, error) {
	prof, err := workload.ByName(cfg.Benchmark)
	if err != nil {
		return nil, err
	}
	if old == nil {
		old = &storage{h: &coherence.Hierarchy{}}
	}
	memCfg := cfg.Memory
	memCfg.LinkCompression = cfg.LinkCompression
	cdc := codec.MustByName(cfg.Codec) // cfg is validated
	s := &System{
		cfg:      cfg,
		prof:     prof,
		codec:    cdc,
		mem:      memory.New(memCfg),
		inflight: newInflightTable(old.inflight),
	}
	size := coherence.SizeFunc(uncompressedSize)
	if cfg.readsSizes() {
		s.data = workload.NewDataModelShared(prof, cfg.Seed, cdc, sizes)
		s.dirtyRng = rand.New(rand.NewSource(cfg.Seed ^ 0x5EED))
		size = s.data.SizeOf
	}
	s.l2, err = newL2Stage(cfg, s.mem)
	if err != nil {
		return nil, err
	}

	var l2 cache.L2
	if cfg.CacheCompression {
		l2 = cache.RecycleCompressedL2(old.h.L2, cfg.L2Bytes, cfg.L2TagsPerSet, cfg.L2SegsPerSet)
	} else {
		victims := 0
		if cfg.AdaptivePrefetch {
			victims = cfg.UncompressedVictimTags
		}
		l2 = cache.RecycleUncompressedL2(old.h.L2, cfg.L2Bytes, cfg.L2Ways, victims)
	}
	s.h = coherence.Recycle(old.h, coherence.Config{
		Cores:   cfg.Cores,
		L1Bytes: cfg.L1Bytes,
		L1Ways:  cfg.L1Ways,
		L2:      l2,
		Size:    size,
	})
	s.fe = newFrontEnd(cfg, prof)
	if cfg.CollectMissProfile {
		s.missProfile = make(map[cache.BlockAddr]uint32)
	}
	s.initAudit(cfg)
	s.fastOK = s.aud == nil && s.faultAt == 0
	return s, nil
}

// readsSizes reports whether anything in a system built from c reads
// block sizes or content versions: a compressed L2 stores sizes, a
// compressed link sends them, the auditor cross-checks contents and
// sizes, and a state fault may corrupt either. Without any of these,
// the plain L2 stores every line at cache.MaxSegs and the link sends
// every line in full, whatever the data model would say, so the system
// skips building one (DESIGN.md §6f).
func (c Config) readsSizes() bool {
	return c.CacheCompression || c.LinkCompression || c.CheckLevel.Enabled() || c.StateFault != ""
}

// uncompressedSize is the SizeFunc of a system without a data model:
// every block at its uncompressed size.
func uncompressedSize(cache.BlockAddr) uint8 { return cache.MaxSegs }

// Run executes warmup then the measurement window and returns Metrics.
// An audit violation (CheckLevel > Off, or an injected StateFault that
// a check catches) is returned as a *audit.Violation error; any other
// panic propagates unchanged. The System is built in newly allocated
// memory.
func Run(cfg Config) (Metrics, error) {
	s, err := NewSystem(cfg)
	if err != nil {
		return Metrics{}, err
	}
	return s.runChecked()
}

// RunInfo is what RunShared reports beside the Metrics about how it
// ran, which the Metrics leave out.
type RunInfo struct {
	// Sizes counts where the data model's sizes came from (zero without
	// a data model), even when the run fails an audit.
	Sizes workload.SizeCounts
	// Recycled and Fresh report that the System was built in storage
	// from the pool or in newly allocated memory; both are false when
	// cfg built no System.
	Recycled, Fresh bool
}

// RunShared is Run for internal/core's seed jobs, with two things
// shared across runs and Metrics bit-identical to Run's. The data
// model reads and writes the version-0 block sizes of sizes' table for
// its (seed, knob, codec). The System is built in storage a finished
// RunShared left in the process-wide pool, when it holds one, and its
// own storage goes back there if the run returns normally; a run that
// panics or fails an audit drops it, and an invalid cfg takes none.
// Only this goroutine hands the storage back, after the run, so no two
// live Systems share memory.
func RunShared(cfg Config, sizes *workload.SizeRegistry) (m Metrics, info RunInfo, err error) {
	if err := cfg.Validate(); err != nil {
		return Metrics{}, info, err
	}
	old, _ := storages.Get().(*storage)
	s, err := newSystem(cfg, sizes, old)
	if err != nil {
		return Metrics{}, info, err
	}
	info.Recycled, info.Fresh = old != nil, old == nil
	m, err = s.runChecked()
	if s.data != nil {
		info.Sizes = s.data.SizeCounts()
	}
	if err == nil {
		storages.Put(s.recyclable())
	}
	return m, info, err
}

// runChecked runs s, returning an audit violation as the error; any
// other panic propagates.
func (s *System) runChecked() (m Metrics, err error) {
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
	s.runTo(targets, math.MaxInt)
}

// finished is the clock a core that reached its target reads as.
const finished = timing.Tick(math.MaxInt64)

// runTo runs up to max steps, each on the unfinished core with the
// smallest local clock — the simulator's deterministic event order —
// until every core has retired targets[i] instructions. Same-clock ties
// (exact in the integer tick domain) go to the lowest core index.
// Progress is measured by consumed instructions (cpu.Core.Instrs), not
// generated ones: with batching the generators run ahead of the cores
// by up to one refBatch window. The clocks live in one contiguous array
// that only the stepped core's entry changes, since a step advances no
// other core; a finished core reads as the maximum tick.
func (s *System) runTo(targets []uint64, max int) {
	cores := s.fe.cores
	clocks := make([]timing.Tick, len(cores))
	for i, c := range cores {
		clocks[i] = finished
		if c.Instrs < targets[i] {
			clocks[i] = c.Now
		}
	}
	for ; max > 0; max-- {
		// Branch-free argmin: clocks are non-negative, so t-min cannot
		// overflow and its sign bit says whether t is the new minimum.
		c, min := 0, clocks[0]
		for i, t := range clocks {
			lt := (t - min) >> 63 // -1 when t < min, else 0
			min += (t - min) & lt
			c ^= (c ^ i) & int(lt)
		}
		if min == finished {
			return
		}
		s.step(c)
		clocks[c] = finished
		if cores[c].Instrs < targets[c] {
			clocks[c] = cores[c].Now
		}
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
		// Drop completed in-flight entries so the table stays small
		// enough to stay in cache.
		s.inflight.prune(s.fe.minNow())
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
	// Only the data model reads which stores change contents, so without
	// one the draw is skipped.
	if kind == coherence.Store && s.data != nil && s.dirtyRng.Float64() < s.prof.StoreDirtyProb {
		s.data.Dirty(addr)
		if s.aud != nil {
			s.aud.OnStore(addr)
		}
	}

	// Fast path: with auditing and telemetry off, a plain L1 hit (no
	// prefetch bit to consume, no store upgrade) retires here without
	// building an AccessResult or touching the L2 or memory stage.
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
	partial := s.resolveInflight(addr, now, &r)
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
		done := s.l2.Demand(now, addr, &r)
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
func (s *System) resolveInflight(addr cache.BlockAddr, now timing.Tick, r *coherence.AccessResult) timing.Tick {
	src := coherence.PfNone
	if r.L1PrefetchHit {
		src = r.L1PfBy
	} else if r.L2PrefetchHit {
		src = r.L2PfBy
	}
	if src == coherence.PfNone {
		return 0
	}
	t, ok := s.inflight.take(addr)
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
			if i := s.inflight.find(a); i >= 0 && s.inflight.slots[i].done > now {
				s.pfPartial[out.L2PfBy]++
				s.inflight.removeAt(i)
			} else {
				s.pfHits[out.L2PfBy]++
			}
			s.fe.adL2.Useful()
		}
		done := s.l2.FillForL1(now, a, &out)
		for _, wb := range out.Writebacks {
			s.auditWriteback(now, wb)
		}
		s.inflight.put(a, done)
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
		s.inflight.put(a, done)
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
	t.l2ComprHits = s.h.L2.CompressedHits
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
	t.hitLatSum, t.hitLatN = s.l2.hitStats()
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
