package main

// Per-layer measurement by record and replay.
//
// A clock read costs about as much as an L1 fast-path hit on small
// virtual machines, so timing every call would mostly measure the
// clock. Instead the record pass below re-drives one simulation through
// the public functions of each internal module, in exactly the order
// sim.System.step calls them, and appends every call's inputs (plus the
// values it received from other layers) to an in-memory log. The timed
// pass then replays each layer's log against a fresh instance of that
// layer in one tight loop: one span per layer, ns/call = span / calls.
// Every layer is deterministic in its call sequence, so a replay repeats
// exactly the recorded work; each replay hashes its outcomes and the run
// fails unless the hash matches the record pass.
//
// The record pass mirrors internal/sim's step loop, L2 stage and front
// end. It is a stop-gap until spans inside the program exist; the
// fidelity check (the record pass's window L1D miss rate and L2 MPKI
// against sim.Run's Metrics) catches it drifting from the simulator.

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"cmpsim/internal/cache"
	"cmpsim/internal/codec"
	"cmpsim/internal/coherence"
	"cmpsim/internal/cpu"
	"cmpsim/internal/memory"
	"cmpsim/internal/prefetch"
	"cmpsim/internal/sim"
	"cmpsim/internal/timing"
	"cmpsim/internal/workload"
)

// refBatch mirrors the simulator's per-core generation window: the
// record pass must refill sources in the same batch size for the
// generator replay to repeat the same NextN calls.
const refBatch = 256

// Log entries pack a block address into the low addrBits and the call's
// meta word above it; record fails on an address that does not fit.
const (
	addrBits = 48
	addrMask = 1<<addrBits - 1
)

// Coherence call kinds: meta = op | core<<2 | kind<<7 | by<<9.
const (
	cohFast = iota
	cohAccess
	cohPfL1
	cohPfL2
)

// Prefetch engine call kinds: meta = engine | op<<7 | srcSlot<<9. The
// simulator brackets every OnMiss with Allocations reads and asks the
// core's L1 engine (slot srcSlot) for StreamStride right before every
// TriggerStream on its L2 engine, so those reads are implied by the
// entries and replayed with them.
const (
	pfAccess = iota
	pfMiss
	pfTrigger
)

// dirtyOp marks a DataModel log entry as Dirty rather than SizeOf.
const dirtyOp = cache.BlockAddr(1) << 63

// memWriteback marks a memory log entry as Writeback rather than Fetch.
const memWriteback = 0x80

// chunkLog is an append-only log kept in fixed-size chunks, so growing
// it never copies and a long record pass leaves no discarded arrays.
type chunkLog[T any] struct {
	chunks [][]T
	n      int
}

func (l *chunkLog[T]) add(v T) {
	if k := len(l.chunks); k == 0 || len(l.chunks[k-1]) == cap(l.chunks[k-1]) {
		l.chunks = append(l.chunks, make([]T, 0, 1<<16))
	}
	last := &l.chunks[len(l.chunks)-1]
	*last = append(*last, v)
	l.n++
}

type bankCall struct {
	addr uint64
	at   timing.Tick
}

type memCall struct {
	now  timing.Tick
	addr cache.BlockAddr
	op   uint8 // segs | memWriteback
}

// layerLog is one record pass: each layer's call log and the outcome
// hash its replay must reproduce, plus the whole-run counts the
// per-layer metrics are normalized by.
type layerLog struct {
	cfg  sim.Config
	prof workload.Profile

	refills []int    // workload.RefSource: NextN calls per core
	genHash []uint64 // per core, over every generated reference

	dataOps  chunkLog[cache.BlockAddr] // workload.DataModel: SizeOf(a), or Dirty(a|dirtyOp)
	dataHash uint64
	sizeOfs  uint64

	lines     chunkLog[[cache.LineBytes]byte] // codec: every line sized on a DataModel memo miss
	codecHash uint64

	coh      chunkLog[uint64] // coherence.Hierarchy calls: addr | meta<<addrBits
	cohSizes chunkLog[uint8]  // SizeFunc results, in the order the hierarchy asked
	cohHash  uint64
	fastHits uint64

	pf     chunkLog[uint64] // prefetch engine calls: addr | meta<<addrBits
	pfCap  chunkLog[uint8]  // adaptive cap at each call (adaptive runs only)
	pfHash uint64

	banks    chunkLog[bankCall] // L2 timing.Banks.Acquire calls
	bankHash uint64
	bankWait timing.Tick

	mem     chunkLog[memCall] // memory.System Fetch and Writeback calls
	memHash uint64

	steps, instr uint64
	addrErr      error   // first address too wide for the packed logs
	l1dMissRate  float64 // measurement window, as sim.Metrics defines it
	l2MPKI       float64
}

// recorder is the simulator mirror that produces a layerLog.
type recorder struct {
	log  *layerLog
	cfg  sim.Config
	prof workload.Profile

	data *workload.DataModel
	h    *coherence.Hierarchy
	mem  *memory.System

	banks         *timing.Banks
	hitLat        timing.Tick
	decompLat     timing.Tick
	decompOnFetch bool

	cores []*cpu.Core
	gens  []workload.RefSource
	batch [][]workload.Ref
	pos   []int

	engs []prefetch.Prefetcher // core*3 + {0: L1I, 1: L1D, 2: L2}
	ads  []*prefetch.Adaptive  // same indexing; the L2 slots share one controller
	adL2 *prefetch.Adaptive

	inflight map[cache.BlockAddr]timing.Tick
	dirtyRng *rand.Rand
	steps    uint64
}

// codecTap forwards to the configured codec and, while on, logs every
// line the DataModel sizes. Name is forwarded too, so the calibration
// memo (keyed by codec name) is shared with sim.NewSystem.
type codecTap struct {
	codec.Codec
	log *layerLog
}

func (t *codecTap) CompressedSizeSegments(line []byte) int {
	n := t.Codec.CompressedSizeSegments(line)
	if t.log != nil {
		t.log.lines.add([cache.LineBytes]byte(line[:cache.LineBytes]))
		t.log.codecHash = mix(t.log.codecHash, uint64(n))
	}
	return n
}

// mix folds one word into an outcome hash (FNV-1a over 64-bit words).
func mix(h, x uint64) uint64 { return (h ^ x) * 0x100000001b3 }

func b2u(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

func hashAccess(h uint64, r *coherence.AccessResult) uint64 {
	w := b2u(r.L1Hit) | b2u(r.L2Hit)<<1 | b2u(r.L1PrefetchHit)<<2 | b2u(r.L2PrefetchHit)<<3 |
		b2u(r.L1Harmful)<<4 | b2u(r.L2Harmful)<<5 | b2u(r.L2CompressedHit)<<6 | b2u(r.StoreUpgrade)<<7 |
		b2u(r.DirtyForward)<<8 | b2u(r.MemFetch)<<9 | b2u(r.L1DirtyVictim)<<10 |
		uint64(r.L1PfBy)<<12 | uint64(r.L2PfBy)<<16 | uint64(r.FetchSegs)<<20 |
		uint64(r.L1UselessEvict)<<28 | uint64(r.L2UselessEvict)<<36 | uint64(r.Invalidations)<<44
	h = mix(h, w)
	for _, wb := range r.Writebacks {
		h = mix(h, uint64(wb))
	}
	return h
}

func hashOutcome(h uint64, o *coherence.PrefetchOutcome) uint64 {
	w := b2u(o.AlreadyPresent) | b2u(o.MemFetch)<<1 | b2u(o.L2Hit)<<2 | b2u(o.L2Compressed)<<3 |
		b2u(o.L2PrefetchHit)<<4 | uint64(o.L2PfBy)<<8 | uint64(o.FetchSegs)<<12 |
		uint64(o.L2UselessEvict)<<20 | uint64(o.L1UselessEvict)<<28 | uint64(o.Invalidations)<<36
	h = mix(h, w)
	for _, wb := range o.Writebacks {
		h = mix(h, uint64(wb))
	}
	return h
}

func hashAddrs(h uint64, as []cache.BlockAddr) uint64 {
	h = mix(h, uint64(len(as)))
	for _, a := range as {
		h = mix(h, uint64(a))
	}
	return h
}

func hashRef(h uint64, r *workload.Ref) uint64 {
	return mix(mix(h, uint64(r.Addr)), uint64(r.Gap)<<8|uint64(r.Kind)<<1|b2u(r.Blocking))
}

// newL2 builds the shared L2 sim.NewSystem would build for cfg.
func newL2(cfg sim.Config) cache.L2 {
	if cfg.CacheCompression {
		return cache.NewCompressedL2(cfg.L2Bytes, cfg.L2TagsPerSet, cfg.L2SegsPerSet)
	}
	victims := 0
	if cfg.AdaptivePrefetch {
		victims = cfg.UncompressedVictimTags
	}
	return cache.NewUncompressedL2(cfg.L2Bytes, cfg.L2Ways, victims)
}

// memConfig is the memory configuration sim.NewSystem derives from cfg.
func memConfig(cfg sim.Config) memory.Config {
	m := cfg.Memory
	m.LinkCompression = cfg.LinkCompression
	return m
}

// engineConfigs returns the L1 and L2 prefetch configurations the
// simulator's front end derives from cfg.
func engineConfigs(cfg sim.Config) (l1, l2 prefetch.Config) {
	l1, l2 = prefetch.L1Config(), prefetch.L2Config()
	if cfg.L1PrefetchDepth > 0 {
		l1.StartupDepth = cfg.L1PrefetchDepth
	}
	if cfg.L2PrefetchDepth > 0 {
		l2.StartupDepth = cfg.L2PrefetchDepth
	}
	return l1, l2
}

// newEngines builds the per-core L1I/L1D/L2 engines for cfg.
func newEngines(cfg sim.Config) []prefetch.Prefetcher {
	l1, l2 := engineConfigs(cfg)
	mk := prefetch.MustByName(cfg.PrefetcherKind)
	engs := make([]prefetch.Prefetcher, 0, 3*cfg.Cores)
	for c := 0; c < cfg.Cores; c++ {
		engs = append(engs, mk(l1), mk(l1), mk(l2))
	}
	return engs
}

// record runs cfg once through the simulator mirror and returns the
// call logs. cfg's calibration must already be memoized (the benchmark's
// set-up builds every system it simulates), or calibration would run
// here, outside the logs.
func record(cfg sim.Config) (*layerLog, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	prof, err := workload.ByName(cfg.Benchmark)
	if err != nil {
		return nil, err
	}
	lg := &layerLog{cfg: cfg, prof: prof, refills: make([]int, cfg.Cores), genHash: make([]uint64, cfg.Cores)}
	tap := &codecTap{Codec: codec.MustByName(cfg.Codec)}
	r := &recorder{
		log:           lg,
		cfg:           cfg,
		prof:          prof,
		data:          workload.NewDataModelCodec(prof, cfg.Seed, tap),
		mem:           memory.New(memConfig(cfg)),
		hitLat:        timing.FromCycles(cfg.L2HitCycles),
		decompLat:     timing.FromCycles(cfg.DecompressionCycles),
		decompOnFetch: cfg.LinkCompression || cfg.CacheCompression,
		inflight:      make(map[cache.BlockAddr]timing.Tick),
		dirtyRng:      rand.New(rand.NewSource(cfg.Seed ^ 0x5EED)),
	}
	tap.log = lg
	if r.banks, err = timing.NewBanks(cfg.L2Banks, timing.FromCycles(cfg.L2BankOccupancy)); err != nil {
		return nil, err
	}
	r.h = coherence.New(coherence.Config{
		Cores: cfg.Cores, L1Bytes: cfg.L1Bytes, L1Ways: cfg.L1Ways, L2: newL2(cfg),
		Size: func(a cache.BlockAddr) uint8 {
			s := r.sizeOf(a)
			lg.cohSizes.add(s)
			return s
		},
	})
	l1cfg, l2cfg := engineConfigs(cfg)
	cpuCfg := cfg.CPU
	cpuCfg.BaseCPI = prof.BaseCPI
	r.engs = newEngines(cfg)
	r.adL2 = prefetch.NewAdaptive(l2cfg.StartupDepth)
	for c := 0; c < cfg.Cores; c++ {
		r.cores = append(r.cores, cpu.New(cpuCfg))
		r.gens = append(r.gens, workload.MustNewSource(cfg.RefSource, prof, c, cfg.Seed))
		r.batch = append(r.batch, make([]workload.Ref, refBatch))
		r.pos = append(r.pos, refBatch)
		r.ads = append(r.ads, prefetch.NewAdaptive(l1cfg.StartupDepth), prefetch.NewAdaptive(l1cfg.StartupDepth), r.adL2)
	}
	if cfg.AdaptivePrefetch {
		for i, e := range r.engs {
			e.SetCap(r.ads[i].Cap)
		}
	}

	r.phase(cfg.WarmupInstr)
	i0, a0, m0, l2m0 := r.counts()
	r.phase(cfg.MeasureInstr)
	for _, c := range r.cores {
		c.Drain()
	}
	i1, a1, m1, l2m1 := r.counts()
	tap.log = nil
	if lg.addrErr != nil {
		return nil, lg.addrErr
	}
	lg.steps, lg.instr = r.steps, i1
	if a1 > a0 {
		lg.l1dMissRate = float64(m1-m0) / float64(a1-a0)
	}
	if i1 > i0 {
		lg.l2MPKI = float64(l2m1-l2m0) * 1000 / float64(i1-i0)
	}
	lg.bankWait = r.banks.WaitTicks()
	return lg, nil
}

// counts snapshots retired instructions, L1D accesses and misses, and
// L2 misses.
func (r *recorder) counts() (instr, l1dAcc, l1dMiss, l2Miss uint64) {
	for i, c := range r.cores {
		instr += c.Instrs
		l1dAcc += r.h.L1D[i].Stats.Accesses
		l1dMiss += r.h.L1D[i].Stats.Misses
	}
	return instr, l1dAcc, l1dMiss, r.h.L2.BaseStats().Misses
}

// phase runs every core n further instructions in the simulator's
// min-clock order (ties to the lowest core).
func (r *recorder) phase(n uint64) {
	if n == 0 {
		return
	}
	targets := make([]uint64, len(r.cores))
	for i, c := range r.cores {
		targets[i] = c.Instrs + n
	}
	for {
		c := -1
		for i := range r.cores {
			if r.cores[i].Instrs >= targets[i] {
				continue
			}
			if c == -1 || r.cores[i].Now < r.cores[c].Now {
				c = i
			}
		}
		if c == -1 {
			return
		}
		r.step(c)
	}
}

func (r *recorder) nextRef(c int) workload.Ref {
	if r.pos[c] == refBatch {
		buf := r.batch[c]
		r.gens[c].NextN(buf)
		r.log.refills[c]++
		h := r.log.genHash[c]
		for j := range buf {
			h = hashRef(h, &buf[j])
		}
		r.log.genHash[c] = h
		r.pos[c] = 0
	}
	ref := r.batch[c][r.pos[c]]
	r.pos[c]++
	return ref
}

func (r *recorder) step(c int) {
	r.steps++
	if r.steps&0xFFFFF == 0 {
		r.pruneInflight()
	}
	core := r.cores[c]
	ref := r.nextRef(c)
	core.Advance(uint64(ref.Gap))
	now, kind, addr := core.Now, ref.Kind, ref.Addr
	if kind == coherence.Store && r.dirtyRng.Float64() < r.prof.StoreDirtyProb {
		r.dirty(addr)
	}
	e, src := c*3+1, coherence.PfL1D
	if kind == coherence.IFetch {
		e, src = c*3, coherence.PfL1I
	}
	if r.fastHit(c, kind, addr) {
		if r.cfg.Prefetching {
			if reqs := r.onAccess(e, addr); len(reqs) != 0 {
				r.issueL1(c, kind, src, now, reqs)
			}
		}
		return
	}
	res := r.access(c, kind, addr)
	ad := r.ads[e]
	partial := r.resolveInflight(addr, now, &res)
	if res.L1PrefetchHit {
		ad.Useful()
	}
	if res.L2PrefetchHit {
		r.adL2.Useful()
	}
	for i := 0; i < res.L1UselessEvict; i++ {
		ad.Useless()
	}
	for i := 0; i < res.L2UselessEvict; i++ {
		r.adL2.Useless()
	}
	if res.L1Harmful {
		ad.Harmful()
	}
	if res.L2Harmful {
		r.adL2.Harmful()
	}
	blocking := ref.Blocking || kind == coherence.IFetch
	if res.L1Hit {
		if partial > now {
			core.IssueMiss(partial, blocking)
		}
	} else {
		done := r.demand(now, addr, &res)
		if partial > done {
			done = partial
		}
		for _, wb := range res.Writebacks {
			r.writeback(now, wb)
		}
		core.IssueMiss(done, blocking)
	}
	if r.cfg.Prefetching {
		r.drivePrefetchers(c, kind, src, addr, now, &res, e)
	}
}

func (r *recorder) resolveInflight(addr cache.BlockAddr, now timing.Tick, res *coherence.AccessResult) timing.Tick {
	src := coherence.PfNone
	if res.L1PrefetchHit {
		src = res.L1PfBy
	} else if res.L2PrefetchHit {
		src = res.L2PfBy
	}
	if src == coherence.PfNone {
		return 0
	}
	t, ok := r.inflight[addr]
	if ok {
		delete(r.inflight, addr)
	}
	if ok && t > now {
		return t
	}
	return 0
}

func (r *recorder) pruneInflight() {
	minNow := r.cores[0].Now
	for _, c := range r.cores[1:] {
		if c.Now < minNow {
			minNow = c.Now
		}
	}
	for a, t := range r.inflight {
		if t < minNow {
			delete(r.inflight, a)
		}
	}
}

func (r *recorder) drivePrefetchers(c int, kind coherence.Kind, src coherence.PfSource, addr cache.BlockAddr, now timing.Tick, res *coherence.AccessResult, e int) {
	l2e := c*3 + 2
	reqs := r.onAccess(e, addr)
	if len(reqs) == 0 && !res.L1Hit {
		var grew bool
		reqs, grew = r.onMiss(e, addr)
		if grew {
			// An L1 stream triggers an L2 stream along the same stride.
			r.issueL2(c, now, r.trigger(l2e, addr, e))
		}
	}
	r.issueL1(c, kind, src, now, reqs)
	if !res.L1Hit {
		l2reqs := r.onAccess(l2e, addr)
		if len(l2reqs) == 0 && !res.L2Hit {
			l2reqs, _ = r.onMiss(l2e, addr)
		}
		r.issueL2(c, now, l2reqs)
	}
}

func (r *recorder) issueL1(c int, kind coherence.Kind, src coherence.PfSource, now timing.Tick, reqs []cache.BlockAddr) {
	pfKind, ad := coherence.Load, r.ads[c*3+1]
	if kind == coherence.IFetch {
		pfKind, ad = coherence.IFetch, r.ads[c*3]
	}
	for _, a := range reqs {
		out := r.prefetchL1(c, pfKind, a, src)
		if out.AlreadyPresent {
			continue
		}
		if out.L2PrefetchHit {
			if t, ok := r.inflight[a]; ok && t > now {
				delete(r.inflight, a)
			}
			r.adL2.Useful()
		}
		done := r.fillForL1(now, a, &out)
		for _, wb := range out.Writebacks {
			r.writeback(now, wb)
		}
		r.inflight[a] = done
		for i := 0; i < out.L1UselessEvict; i++ {
			ad.Useless()
		}
		for i := 0; i < out.L2UselessEvict; i++ {
			r.adL2.Useless()
		}
	}
}

func (r *recorder) issueL2(c int, now timing.Tick, reqs []cache.BlockAddr) {
	for _, a := range reqs {
		out := r.prefetchL2(c, a)
		if out.AlreadyPresent {
			continue
		}
		done := r.fillForL2(now, a, out.FetchSegs)
		for _, wb := range out.Writebacks {
			r.writeback(now, wb)
		}
		r.inflight[a] = done
		for i := 0; i < out.L2UselessEvict; i++ {
			r.adL2.Useless()
		}
	}
}

// The L2 stage: bank reservation, then hit latency or a memory fetch.

func (r *recorder) demand(now timing.Tick, addr cache.BlockAddr, res *coherence.AccessResult) timing.Tick {
	st := r.acquire(uint64(addr), now)
	if res.L2Hit {
		lat := r.hitLat
		if res.L2CompressedHit {
			lat += r.decompLat
		}
		if res.DirtyForward {
			lat += r.hitLat
		}
		return st + lat
	}
	done := r.fetch(st+r.hitLat, addr, res.FetchSegs)
	if r.decompOnFetch {
		done += r.decompLat
	}
	return done
}

func (r *recorder) fillForL1(now timing.Tick, addr cache.BlockAddr, out *coherence.PrefetchOutcome) timing.Tick {
	st := r.acquire(uint64(addr), now)
	if out.MemFetch {
		done := r.fetch(st+r.hitLat, addr, out.FetchSegs)
		if r.decompOnFetch {
			done += r.decompLat
		}
		return done
	}
	lat := r.hitLat
	if out.L2Compressed {
		lat += r.decompLat
	}
	return st + lat
}

func (r *recorder) fillForL2(now timing.Tick, addr cache.BlockAddr, segs uint8) timing.Tick {
	st := r.acquire(uint64(addr), now)
	return r.fetch(st+r.hitLat, addr, segs)
}

func (r *recorder) writeback(now timing.Tick, wb cache.BlockAddr) {
	segs := r.sizeOf(wb)
	r.log.mem.add(memCall{now: now, addr: wb, op: segs | memWriteback})
	r.log.memHash = mix(r.log.memHash, uint64(r.mem.Writeback(now, wb, segs)))
}

// Logged calls into each layer.

// pack places a in the low addrBits of a log word, noting the first
// address too wide to fit.
func (r *recorder) pack(a cache.BlockAddr, meta int) uint64 {
	if a > addrMask && r.log.addrErr == nil {
		r.log.addrErr = fmt.Errorf("block address %#x of %s does not fit the %d-bit record log", uint64(a), r.cfg.Benchmark, addrBits)
	}
	return uint64(a)&addrMask | uint64(meta)<<addrBits
}

func (r *recorder) sizeOf(a cache.BlockAddr) uint8 {
	lg := r.log
	s := r.data.SizeOf(a)
	lg.dataOps.add(a)
	lg.dataHash = mix(lg.dataHash, uint64(s))
	lg.sizeOfs++
	return s
}

func (r *recorder) dirty(a cache.BlockAddr) {
	r.data.Dirty(a)
	r.log.dataOps.add(a | dirtyOp)
}

func (r *recorder) logCoherence(op, c int, kind coherence.Kind, by coherence.PfSource, a cache.BlockAddr) {
	r.log.coh.add(r.pack(a, op|c<<2|int(kind)<<7|int(by)<<9))
}

func (r *recorder) fastHit(c int, kind coherence.Kind, a cache.BlockAddr) bool {
	r.logCoherence(cohFast, c, kind, 0, a)
	ok := r.h.FastHit(c, kind, a)
	r.log.cohHash = mix(r.log.cohHash, b2u(ok))
	if ok {
		r.log.fastHits++
	}
	return ok
}

func (r *recorder) access(c int, kind coherence.Kind, a cache.BlockAddr) coherence.AccessResult {
	r.logCoherence(cohAccess, c, kind, 0, a)
	res := r.h.Access(c, kind, a)
	r.log.cohHash = hashAccess(r.log.cohHash, &res)
	return res
}

func (r *recorder) prefetchL1(c int, kind coherence.Kind, a cache.BlockAddr, by coherence.PfSource) coherence.PrefetchOutcome {
	r.logCoherence(cohPfL1, c, kind, by, a)
	out := r.h.PrefetchL1(c, kind, a, by)
	r.log.cohHash = hashOutcome(r.log.cohHash, &out)
	return out
}

func (r *recorder) prefetchL2(c int, a cache.BlockAddr) coherence.PrefetchOutcome {
	r.logCoherence(cohPfL2, c, 0, coherence.PfL2, a)
	out := r.h.PrefetchL2(c, a, coherence.PfL2)
	r.log.cohHash = hashOutcome(r.log.cohHash, &out)
	return out
}

func (r *recorder) logPrefetch(e, op, srcSlot int, a cache.BlockAddr) {
	r.log.pf.add(r.pack(a, e|op<<7|srcSlot<<9))
	if r.cfg.AdaptivePrefetch {
		r.log.pfCap.add(uint8(r.ads[e].Cap()))
	}
}

func (r *recorder) onAccess(e int, a cache.BlockAddr) []cache.BlockAddr {
	r.logPrefetch(e, pfAccess, 0, a)
	reqs := r.engs[e].OnAccess(a)
	r.log.pfHash = hashAddrs(r.log.pfHash, reqs)
	return reqs
}

// onMiss trains engine e on a miss and reports whether it allocated a
// stream (the Allocations count grew).
func (r *recorder) onMiss(e int, a cache.BlockAddr) ([]cache.BlockAddr, bool) {
	r.logPrefetch(e, pfMiss, 0, a)
	eng := r.engs[e]
	before := eng.Allocations()
	reqs := eng.OnMiss(a)
	after := eng.Allocations()
	r.log.pfHash = mix(mix(hashAddrs(r.log.pfHash, reqs), before), after)
	return reqs, after > before
}

// trigger starts an L2 stream on engine l2e along L1 engine src's stride.
func (r *recorder) trigger(l2e int, a cache.BlockAddr, src int) []cache.BlockAddr {
	r.logPrefetch(l2e, pfTrigger, src%3, a)
	stride := r.engs[src].StreamStride()
	reqs := r.engs[l2e].TriggerStream(a, stride)
	r.log.pfHash = hashAddrs(mix(r.log.pfHash, uint64(stride)), reqs)
	return reqs
}

func (r *recorder) acquire(addr uint64, at timing.Tick) timing.Tick {
	r.log.banks.add(bankCall{addr: addr, at: at})
	st := r.banks.Acquire(addr, at)
	r.log.bankHash = mix(r.log.bankHash, uint64(st))
	return st
}

func (r *recorder) fetch(now timing.Tick, addr cache.BlockAddr, segs uint8) timing.Tick {
	r.log.mem.add(memCall{now: now, addr: addr, op: segs})
	done := r.mem.Fetch(now, addr, segs)
	r.log.memHash = mix(r.log.memHash, uint64(done))
	return done
}

// Replays. Each builds a fresh instance of one layer outside its span,
// then replays the layer's whole log inside it.

// layerSpan is one replayed layer: calls, wall time and allocations.
type layerSpan struct {
	name   string
	calls  uint64
	start  time.Time
	dur    time.Duration
	allocs uint64
}

// timeSpan times fn and counts the heap allocations it made.
func timeSpan(name string, calls uint64, fn func()) layerSpan {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	a0 := ms.Mallocs
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	runtime.ReadMemStats(&ms)
	return layerSpan{name: name, calls: calls, start: t0, dur: d, allocs: ms.Mallocs - a0}
}

// Replayed layer names, in replay order.
const (
	spanGen       = "workload.gen"
	spanSizeOf    = "workload.sizeof"
	spanCodec     = "codec.size"
	spanCoherence = "coherence"
	spanPrefetch  = "prefetch"
	spanBanks     = "timing.bank_acquire"
	spanMemory    = "memory"
)

// replayAll replays every layer of lg and checks each reproduced the
// record pass's outcomes.
func replayAll(lg *layerLog) ([]layerSpan, error) {
	cfg := lg.cfg
	var err error
	check := func(layer string, got, want uint64) {
		if err == nil && got != want {
			err = fmt.Errorf("replay of %s for %s seed %d did not reproduce the record pass", layer, cfg.Benchmark, cfg.Seed)
		}
	}
	var spans []layerSpan

	gens := make([]workload.RefSource, cfg.Cores)
	refs := uint64(0)
	for c := range gens {
		gens[c] = workload.MustNewSource(cfg.RefSource, lg.prof, c, cfg.Seed)
		refs += uint64(lg.refills[c]) * refBatch
	}
	buf := make([]workload.Ref, refBatch)
	hashes := make([]uint64, cfg.Cores)
	spans = append(spans, timeSpan(spanGen, refs, func() {
		for c, src := range gens {
			h := uint64(0)
			for i := 0; i < lg.refills[c]; i++ {
				src.NextN(buf)
				for j := range buf {
					h = hashRef(h, &buf[j])
				}
			}
			hashes[c] = h
		}
	}))
	for c := range hashes {
		check("workload.RefSource", hashes[c], lg.genHash[c])
	}

	dm := workload.NewDataModelCodec(lg.prof, cfg.Seed, codec.MustByName(cfg.Codec))
	var h uint64
	spans = append(spans, timeSpan(spanSizeOf, lg.sizeOfs, func() {
		for _, ch := range lg.dataOps.chunks {
			for _, op := range ch {
				if op&dirtyOp != 0 {
					dm.Dirty(op &^ dirtyOp)
					continue
				}
				h = mix(h, uint64(dm.SizeOf(op)))
			}
		}
	}))
	check("workload.DataModel", h, lg.dataHash)

	cdc := codec.MustByName(cfg.Codec)
	h = 0
	spans = append(spans, timeSpan(spanCodec, uint64(lg.lines.n), func() {
		for _, ch := range lg.lines.chunks {
			for i := range ch {
				h = mix(h, uint64(cdc.CompressedSizeSegments(ch[i][:])))
			}
		}
	}))
	check("codec", h, lg.codecHash)

	hier := newReplayHierarchy(lg)
	spans = append(spans, timeSpan(spanCoherence, uint64(lg.coh.n), func() { h = replayCoherence(hier, lg) }))
	check("coherence.Hierarchy", h, lg.cohHash)
	check("coherence.Hierarchy sizes", uint64(hier.used), uint64(lg.cohSizes.n))

	engs := newEngines(cfg)
	capNow := 0
	if cfg.AdaptivePrefetch {
		for _, e := range engs {
			e.SetCap(func() int { return capNow })
		}
	}
	h = 0
	spans = append(spans, timeSpan(spanPrefetch, uint64(lg.pf.n), func() {
		for k, ch := range lg.pf.chunks {
			var caps []uint8
			if cfg.AdaptivePrefetch {
				caps = lg.pfCap.chunks[k]
			}
			for i, w := range ch {
				if caps != nil {
					capNow = int(caps[i])
				}
				addr, m := cache.BlockAddr(w&addrMask), int(w>>addrBits)
				e := m & 0x7F
				switch m >> 7 & 3 {
				case pfAccess:
					h = hashAddrs(h, engs[e].OnAccess(addr))
				case pfMiss:
					before := engs[e].Allocations()
					reqs := engs[e].OnMiss(addr)
					h = mix(mix(hashAddrs(h, reqs), before), engs[e].Allocations())
				case pfTrigger:
					stride := engs[e-2+m>>9].StreamStride()
					h = hashAddrs(mix(h, uint64(stride)), engs[e].TriggerStream(addr, stride))
				}
			}
		}
	}))
	check("prefetch", h, lg.pfHash)

	banks, berr := timing.NewBanks(cfg.L2Banks, timing.FromCycles(cfg.L2BankOccupancy))
	if berr != nil {
		return nil, berr
	}
	h = 0
	spans = append(spans, timeSpan(spanBanks, uint64(lg.banks.n), func() {
		for _, ch := range lg.banks.chunks {
			for _, c := range ch {
				h = mix(h, uint64(banks.Acquire(c.addr, c.at)))
			}
		}
	}))
	check("timing.Banks", h, lg.bankHash)

	mem := memory.New(memConfig(cfg))
	h = 0
	spans = append(spans, timeSpan(spanMemory, uint64(lg.mem.n), func() {
		for _, ch := range lg.mem.chunks {
			for _, c := range ch {
				if c.op&memWriteback != 0 {
					h = mix(h, uint64(mem.Writeback(c.now, c.addr, c.op&^memWriteback)))
				} else {
					h = mix(h, uint64(mem.Fetch(c.now, c.addr, c.op)))
				}
			}
		}
	}))
	check("memory.System", h, lg.memHash)
	return spans, err
}

// replayHierarchy is a fresh hierarchy whose SizeFunc hands back the
// recorded sizes in order.
type replayHierarchy struct {
	*coherence.Hierarchy
	chunk, i, used int
}

func newReplayHierarchy(lg *layerLog) *replayHierarchy {
	cfg := lg.cfg
	rh := &replayHierarchy{}
	rh.Hierarchy = coherence.New(coherence.Config{
		Cores: cfg.Cores, L1Bytes: cfg.L1Bytes, L1Ways: cfg.L1Ways, L2: newL2(cfg),
		Size: func(cache.BlockAddr) uint8 {
			rh.used++
			if rh.chunk == len(lg.cohSizes.chunks) {
				return cache.MaxSegs // a diverged replay asked for more sizes than were recorded
			}
			ch := lg.cohSizes.chunks[rh.chunk]
			s := ch[rh.i]
			if rh.i++; rh.i == len(ch) {
				rh.chunk, rh.i = rh.chunk+1, 0
			}
			return s
		},
	})
	return rh
}

func replayCoherence(h *replayHierarchy, lg *layerLog) uint64 {
	var hash uint64
	for _, ch := range lg.coh.chunks {
		for _, w := range ch {
			a, m := cache.BlockAddr(w&addrMask), w>>addrBits
			c, kind, by := int(m>>2&0x1F), coherence.Kind(m>>7&3), coherence.PfSource(m>>9&3)
			switch m & 3 {
			case cohFast:
				hash = mix(hash, b2u(h.FastHit(c, kind, a)))
			case cohAccess:
				res := h.Access(c, kind, a)
				hash = hashAccess(hash, &res)
			case cohPfL1:
				out := h.PrefetchL1(c, kind, a, by)
				hash = hashOutcome(hash, &out)
			case cohPfL2:
				out := h.PrefetchL2(c, a, by)
				hash = hashOutcome(hash, &out)
			}
		}
	}
	return hash
}

// fidelity compares the record pass's window miss rates with the
// simulator's: 1 means identical, 0.9 means the worse of the two rates
// is off by 10%.
func fidelity(lg *layerLog, m *sim.Metrics) float64 {
	rel := func(got, want float64) float64 {
		if want == 0 {
			if got == 0 {
				return 0
			}
			return 1
		}
		return math.Abs(got-want) / want
	}
	l1d := 0.0
	if m.L1DAccesses > 0 {
		l1d = float64(m.L1DMisses) / float64(m.L1DAccesses)
	}
	return 1 - math.Max(rel(lg.l1dMissRate, l1d), rel(lg.l2MPKI, m.L2MissesPerKI))
}
