package workload

import (
	"math/rand"

	"cmpsim/internal/cache"
	"cmpsim/internal/coherence"
)

// The irregular sources share the strided Generator's front half — the
// instruction-stream interleaving, exponential gap sampling and
// store/blocking assignment — so per-reference cost, the trace format
// and the profile's MemPer1000 calibration stay uniform across kinds;
// only the data-address function differs. Each source is deterministic
// in (Profile, core, seed) and holds only core-private state (DESIGN.md
// §6i).

// chaseHeads is the number of distinct list heads a pointer chase
// re-heads at. A small head set makes traversals revisit the same
// chains, so miss-pair transitions recur and a correlation prefetcher
// has something to learn.
const chaseHeads = 64

// irrGen is the shared front half of every irregular source.
type irrGen struct {
	p   Profile
	rng *rand.Rand

	// Instruction stream state (mirrors Generator).
	iBlock     cache.BlockAddr
	iRun       int
	instrInBlk int

	// Data stream state.
	gapData  int
	gapScale float64 // service-mix load phases modulate the data-ref rate
	privBase cache.BlockAddr

	data func(r *Ref) // kind-specific data-address generator

	instructions, dataRefs, ifetches uint64
}

func (g *irrGen) init(p Profile, core int, seed int64, kindSalt uint64) {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	g.p = p
	g.rng = rand.New(rand.NewSource(seed ^ int64(splitmix64(uint64(core)+kindSalt))))
	g.privBase = privateBase + cache.BlockAddr(core)*(privateSize+coreSkew)
	if p.DataShared {
		g.privBase = privateBase // one footprint for all cores
	}
	g.gapScale = 1
	g.iBlock = cache.BlockAddr(g.rng.Intn(p.IFootprint))
	g.iRun = p.ISeqRun
	g.gapData = g.sampleGap()
}

// sampleGap draws the instruction distance to the next data reference.
func (g *irrGen) sampleGap() int {
	mean := g.gapScale * 1000 / g.p.MemPer1000
	return int(g.rng.ExpFloat64()*mean + 0.5)
}

// nextIBlock advances the instruction stream to its next code block.
func (g *irrGen) nextIBlock() cache.BlockAddr {
	if g.iRun > 0 {
		g.iRun--
		g.iBlock++
		if g.iBlock >= cache.BlockAddr(g.p.IFootprint) {
			g.iBlock = 0
		}
	} else {
		g.iBlock = cache.BlockAddr(g.rng.Intn(g.p.IFootprint))
		g.iRun = g.p.ISeqRun
	}
	return codeBase + g.iBlock
}

// dataRef produces the next data reference: an occasional touch of the
// high-contention shared region, otherwise the kind-specific structure
// walk.
func (g *irrGen) dataRef(r *Ref) {
	if g.p.SharedFrac > 0 && g.rng.Float64() < g.p.SharedFrac {
		r.Addr = sharedBase + cache.BlockAddr(g.rng.Intn(g.p.SharedWS))
	} else {
		g.data(r)
	}
	if g.rng.Float64() < g.p.StoreFrac {
		r.Kind = coherence.Store
		r.Blocking = false
	} else {
		r.Kind = coherence.Load
		r.Blocking = g.rng.Float64() < g.p.BlockingFrac
	}
}

// Next fills r with the next reference in program order, interleaving
// instruction-block fetches with data references.
func (g *irrGen) Next(r *Ref) {
	dI := g.p.InstrPerIBlock - g.instrInBlk
	if g.gapData < dI {
		adv := g.gapData
		g.instrInBlk += adv
		g.gapData = g.sampleGap()
		g.instructions += uint64(adv)
		g.dataRefs++
		r.Gap = uint32(adv)
		g.dataRef(r)
		return
	}
	adv := dI
	g.gapData -= adv
	g.instrInBlk = 0
	g.instructions += uint64(adv)
	g.ifetches++
	r.Gap = uint32(adv)
	r.Kind = coherence.IFetch
	r.Addr = g.nextIBlock()
	r.Blocking = true
}

// NextN fills refs with the next len(refs) references and returns
// len(refs); the synthetic stream never ends.
func (g *irrGen) NextN(refs []Ref) int {
	for i := range refs {
		g.Next(&refs[i])
	}
	return len(refs)
}

// Counts implements RefSource.
func (g *irrGen) Counts() (instructions, dataRefs, ifetches uint64) {
	return g.instructions, g.dataRefs, g.ifetches
}

// Profile returns the source's benchmark profile.
func (g *irrGen) Profile() Profile { return g.p }

// chaseWalk is the data-dependent pointer walk shared by the ptrchase
// source and the service mix's maintenance phase. The successor of a
// node is a fixed hash of its index — the software analogue of reading
// the node's next pointer — so the address sequence is data-dependent
// and stride-free, but traversals from the same head repeat exactly.
type chaseWalk struct {
	salt  uint64
	nodes int64
	len   int
	cur   int64
	hops  int
}

func (w *chaseWalk) next(rng *rand.Rand) int64 {
	if w.hops <= 0 {
		w.cur = int64(splitmix64(w.salt^uint64(rng.Intn(chaseHeads))) % uint64(w.nodes))
		w.hops = w.len
	}
	cur := w.cur
	w.cur = int64(splitmix64(w.salt+uint64(w.cur)*0x9E3779B97F4A7C15) % uint64(w.nodes))
	w.hops--
	return cur
}

// chaseSource walks linked lists laid out hash-scattered across a
// heap-like arena: long chains of dependent loads with no stride.
type chaseSource struct {
	irrGen
	walk chaseWalk
}

func newChaseSource(p Profile, core int, seed int64) RefSource {
	s := &chaseSource{}
	s.init(p, core, seed, 0xC11A5E)
	length := p.ChaseLen
	if length <= 0 {
		length = 64
	}
	s.walk = chaseWalk{salt: s.rng.Uint64(), nodes: int64(p.PrivateWS), len: length}
	s.data = func(r *Ref) {
		r.Addr = s.privBase + cache.BlockAddr(s.walk.next(s.rng))
	}
	return s
}

// hashProbe models open-hashing lookups: a key hashes to a bucket whose
// short collision chain is then walked sequentially. Chain length is a
// property of the bucket, so repeated lookups of one bucket touch the
// same blocks.
type hashProbe struct {
	salt      uint64
	buckets   int64
	span      int64 // blocks per bucket arena = max chain length
	keys      int64
	hotKeys   int64
	hotProb   float64
	chainLeft int
	chainAddr int64
}

func newHashProbe(p Profile, rng *rand.Rand) hashProbe {
	span := int64(p.ChaseLen)
	if span <= 0 {
		span = 4
	}
	if span > 64 {
		span = 64
	}
	buckets := int64(p.PrivateWS) / span
	if buckets < 1 {
		buckets = 1
	}
	keys := buckets * 2
	hotKeys := int64(float64(keys) * p.HotFrac)
	if hotKeys < 1 {
		hotKeys = 1
	}
	return hashProbe{
		salt: rng.Uint64(), buckets: buckets, span: span,
		keys: keys, hotKeys: hotKeys, hotProb: p.HotProb,
	}
}

func (h *hashProbe) next(rng *rand.Rand) int64 {
	if h.chainLeft <= 0 {
		var key uint64
		if rng.Float64() < h.hotProb {
			key = uint64(rng.Int63n(h.hotKeys))
		} else {
			key = uint64(rng.Int63n(h.keys))
		}
		hv := splitmix64(h.salt ^ key*0xBF58476D1CE4E5B9)
		bucket := int64(hv % uint64(h.buckets))
		h.chainLeft = 1 + int(splitmix64(h.salt+uint64(bucket))%uint64(h.span))
		h.chainAddr = bucket * h.span
	}
	a := h.chainAddr
	h.chainAddr++
	h.chainLeft--
	return a
}

// hashProbeSource drives hash-table probing over the private arena.
type hashProbeSource struct {
	irrGen
	probe hashProbe
}

func newHashProbeSource(p Profile, core int, seed int64) RefSource {
	s := &hashProbeSource{}
	s.init(p, core, seed, 0x11A5_4B0B)
	s.probe = newHashProbe(p, s.rng)
	s.data = func(r *Ref) {
		r.Addr = s.privBase + cache.BlockAddr(s.probe.next(s.rng))
	}
	return s
}

// btreeWalk performs root-to-leaf descents of a B-tree laid out level
// by level: the root and upper levels are tiny and cache-hot, leaves
// are cold, and the child choice at each node is a hash of the lookup
// key and the node's address (data-dependent branching). A fraction of
// lookups finish with a short leaf-range scan.
type btreeWalk struct {
	salt     uint64
	fanout   uint64
	base     []int64 // level start offsets within the arena
	size     []int64 // nodes per level
	limit    int64   // arena size in blocks
	level    int
	node     int64
	key      uint64
	scanLeft int
	scanAddr int64
}

func newBTreeWalk(p Profile, rng *rand.Rand) btreeWalk {
	fanout := p.TreeFanout
	if fanout < 2 {
		fanout = 16
	}
	levels := p.TreeLevels
	if levels < 2 {
		levels = 5
	}
	w := btreeWalk{salt: rng.Uint64(), fanout: uint64(fanout), key: rng.Uint64()}
	var total, n int64 = 0, 1
	for l := 0; l < levels; l++ {
		if room := int64(p.PrivateWS) - total; n > room {
			n = room
		}
		if n < 1 {
			break
		}
		w.base = append(w.base, total)
		w.size = append(w.size, n)
		total += n
		n *= int64(fanout)
	}
	w.limit = total
	return w
}

func (w *btreeWalk) next(rng *rand.Rand) int64 {
	if w.scanLeft > 0 {
		a := w.scanAddr
		w.scanAddr++
		w.scanLeft--
		return a
	}
	a := w.base[w.level] + w.node
	if w.level == len(w.size)-1 {
		// Leaf reached: occasionally a short range scan, then a fresh
		// key restarts the descent at the root.
		if rng.Float64() < 0.25 {
			w.scanAddr = a + 1
			w.scanLeft = 4
			if room := w.limit - w.scanAddr; int64(w.scanLeft) > room {
				w.scanLeft = int(room)
			}
		}
		w.key = rng.Uint64()
		w.level, w.node = 0, 0
	} else {
		child := splitmix64(w.salt^w.key^uint64(a)*0x9E3779B97F4A7C15) % w.fanout
		w.level++
		w.node = (w.node*int64(w.fanout) + int64(child)) % w.size[w.level]
	}
	return a
}

// bTreeSource drives B-tree lookups over the private arena.
type bTreeSource struct {
	irrGen
	walk btreeWalk
}

func newBTreeSource(p Profile, core int, seed int64) RefSource {
	s := &bTreeSource{}
	s.init(p, core, seed, 0xB7EE)
	s.walk = newBTreeWalk(p, s.rng)
	s.data = func(r *Ref) {
		r.Addr = s.privBase + cache.BlockAddr(s.walk.next(s.rng))
	}
	return s
}

// serviceMixSource models a server alternating through load phases of
// PhaseInstr instructions each: point lookups at nominal load, range
// scans at heavy load (the gap scale shortens, raising the data-ref
// rate), and pointer-walk maintenance at light load. The phase is a
// function of the core-private instruction count, so the mix stays
// deterministic in (Profile, core, seed).
type serviceMixSource struct {
	irrGen
	phaseInstr uint64
	probe      hashProbe
	walk       chaseWalk
	scanCur    int64
}

func newServiceMixSource(p Profile, core int, seed int64) RefSource {
	s := &serviceMixSource{}
	s.init(p, core, seed, 0x5E5501)
	s.phaseInstr = p.PhaseInstr
	if s.phaseInstr == 0 {
		s.phaseInstr = 200_000
	}
	s.probe = newHashProbe(p, s.rng)
	length := p.ChaseLen
	if length <= 0 {
		length = 64
	}
	s.walk = chaseWalk{salt: s.rng.Uint64(), nodes: int64(p.PrivateWS), len: length}
	s.data = s.mix
	return s
}

func (s *serviceMixSource) mix(r *Ref) {
	switch (s.instructions / s.phaseInstr) % 3 {
	case 0: // point lookups, nominal load
		s.gapScale = 1.0
		r.Addr = s.privBase + cache.BlockAddr(s.probe.next(s.rng))
	case 1: // range scans, heavy load
		s.gapScale = 0.6
		r.Addr = s.privBase + cache.BlockAddr(s.scanCur)
		s.scanCur++
		if s.scanCur >= int64(s.p.PrivateWS) {
			s.scanCur = 0
		}
	default: // pointer-walk maintenance, light load
		s.gapScale = 1.7
		r.Addr = s.privBase + cache.BlockAddr(s.walk.next(s.rng))
	}
}
