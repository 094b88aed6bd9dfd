package workload

import (
	"math/rand"

	"cmpsim/internal/cache"
	"cmpsim/internal/coherence"
)

// Address-space layout, in block addresses. Code is shared by all cores
// (server processes share text pages); each core has a private data
// region; one region is shared read-write.
// Region bases and the per-core stride are deliberately not multiples
// of any cache's set count (coreSkew is odd): naturally-aligned bases
// would map every region — and every core's hot set — onto the same
// cache sets, a pathological conflict pattern real address spaces do
// not exhibit.
const (
	codeBase    cache.BlockAddr = 0x0100_0C35
	privateBase cache.BlockAddr = 0x0200_0000
	privateSize cache.BlockAddr = 0x0040_0000 // per-core region stride
	coreSkew    cache.BlockAddr = 4099        // de-aliases per-core regions
	sharedBase  cache.BlockAddr = 0x0800_0AAB
	streamBase  cache.BlockAddr = 0x1000_0AB1
)

// Ref is one generated event: Gap non-memory instructions retire, then
// the core performs the described reference. IFetch refs model the
// instruction stream moving to a new code block.
type Ref struct {
	Gap      uint32
	Kind     coherence.Kind
	Addr     cache.BlockAddr
	Blocking bool // load with a near dependent: the core stalls on a miss
}

// stream is one active strided sequence.
type stream struct {
	next      cache.BlockAddr
	stride    int64
	remaining int
}

// Generator produces core coreID's reference stream for one benchmark.
type Generator struct {
	p    Profile
	core int
	rng  *rand.Rand

	// Instruction stream state.
	iBlock     cache.BlockAddr // current code block (offset within footprint)
	iRun       int             // sequential blocks left before a branch away
	instrInBlk int             // instructions retired in the current block

	// Data stream state.
	streams   []stream
	gapData   int // instructions until the next data reference
	hotSpan   cache.BlockAddr
	privBase  cache.BlockAddr
	strmBase  cache.BlockAddr
	strmWS    int
	burstLeft int     // strided refs remaining in the current burst
	burstIdx  int     // stream the burst walks
	pStrided  float64 // per-draw probability of entering a burst

	// Counters.
	Instructions uint64
	DataRefs     uint64
	IFetches     uint64
}

// NewGenerator builds the per-core reference generator. Generators for
// different (core, seed) pairs are independent and deterministic.
func NewGenerator(p Profile, core int, seed int64) *Generator {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	g := &Generator{
		p:        p,
		core:     core,
		rng:      rand.New(rand.NewSource(seed ^ int64(splitmix64(uint64(core)+0xABCD)))),
		privBase: privateBase + cache.BlockAddr(core)*(privateSize+coreSkew),
	}
	if p.DataShared {
		g.privBase = privateBase // one footprint for all cores
	}
	g.strmBase, g.strmWS = g.privBase, p.PrivateWS
	if p.StreamWS > 0 {
		g.strmWS = p.StreamWS
		if p.DataShared {
			g.strmBase = streamBase
		} else {
			g.strmBase = streamBase + cache.BlockAddr(core)*(privateSize+coreSkew)
		}
	}
	g.hotSpan = cache.BlockAddr(float64(p.PrivateWS) * p.HotFrac)
	if g.hotSpan < 1 {
		g.hotSpan = 1
	}
	g.iBlock = cache.BlockAddr(g.rng.Intn(p.IFootprint))
	g.iRun = p.ISeqRun
	for i := 0; i < p.Streams; i++ {
		g.streams = append(g.streams, g.seedStream())
	}
	g.pStrided = p.StridedFrac
	if p.BurstLen > 1 {
		g.pStrided = p.StridedFrac / float64(p.BurstLen)
	}
	g.gapData = g.sampleGap()
	return g
}

// sampleGap draws the instruction distance to the next data reference;
// inside a strided burst the gap is the short inner-loop distance.
func (g *Generator) sampleGap() int {
	if g.burstLeft > 0 {
		return int(g.rng.ExpFloat64()*g.p.BurstGap + 0.5)
	}
	mean := 1000 / g.p.MemPer1000
	return int(g.rng.ExpFloat64()*mean + 0.5)
}

// seedStream starts a strided run at a random spot in the stream region.
func (g *Generator) seedStream() stream {
	st := g.p.Strides[g.rng.Intn(len(g.p.Strides))]
	length := g.p.StreamLen/2 + g.rng.Intn(g.p.StreamLen) // ±50% jitter
	if length < 2 {
		length = 2
	}
	// Keep room so the run stays inside the region.
	span := int64(g.strmWS) - st*int64(length)
	if span < 1 {
		span = 1
	}
	start := g.strmBase + cache.BlockAddr(g.rng.Int63n(span))
	if st < 0 {
		start += cache.BlockAddr(-st * int64(length))
	}
	return stream{next: start, stride: st, remaining: length}
}

// nextIBlock advances the instruction stream to its next code block.
func (g *Generator) nextIBlock() cache.BlockAddr {
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

// strideTouch emits the next block of stream i.
func (g *Generator) strideTouch(i int, r *Ref) {
	s := &g.streams[i]
	r.Addr = s.next
	s.next = cache.BlockAddr(int64(s.next) + s.stride)
	s.remaining--
	if s.remaining <= 0 {
		*s = g.seedStream()
	}
}

// dataRef produces the next data reference address and kind.
func (g *Generator) dataRef(r *Ref) {
	if g.burstLeft > 0 {
		g.burstLeft--
		g.strideTouch(g.burstIdx, r)
		g.finishRef(r)
		return
	}
	x := g.rng.Float64()
	switch {
	case g.p.StridedFrac > 0 && x < g.pStrided:
		g.burstIdx = g.rng.Intn(len(g.streams))
		if g.p.BurstLen > 1 {
			g.burstLeft = g.p.BurstLen - 1
		}
		g.strideTouch(g.burstIdx, r)
	case x < g.pStrided+g.p.SharedFrac:
		r.Addr = sharedBase + cache.BlockAddr(g.rng.Intn(g.p.SharedWS))
	default:
		// Irregular private reference with hot/cold locality.
		if g.rng.Float64() < g.p.HotProb {
			r.Addr = g.privBase + cache.BlockAddr(g.rng.Int63n(int64(g.hotSpan)))
		} else {
			r.Addr = g.privBase + cache.BlockAddr(g.rng.Intn(g.p.PrivateWS))
		}
	}
	g.finishRef(r)
}

// finishRef assigns the reference kind and dependence.
func (g *Generator) finishRef(r *Ref) {
	if g.rng.Float64() < g.p.StoreFrac {
		r.Kind = coherence.Store
		r.Blocking = false
	} else {
		r.Kind = coherence.Load
		r.Blocking = g.rng.Float64() < g.p.BlockingFrac
	}
}

// NextN fills refs with the next len(refs) references in program order
// and returns len(refs); the synthetic stream never ends. Batch
// generation amortizes per-reference call overhead.
func (g *Generator) NextN(refs []Ref) int {
	for i := range refs {
		g.Next(&refs[i])
	}
	return len(refs)
}

// Next fills r with the next reference in program order, interleaving
// instruction-block fetches with data references.
func (g *Generator) Next(r *Ref) {
	dI := g.p.InstrPerIBlock - g.instrInBlk
	if g.gapData < dI {
		// Data reference comes first.
		adv := g.gapData
		g.instrInBlk += adv
		g.gapData = g.sampleGap()
		g.Instructions += uint64(adv)
		g.DataRefs++
		r.Gap = uint32(adv)
		g.dataRef(r)
		return
	}
	// Instruction stream crosses into the next code block.
	adv := dI
	g.gapData -= adv
	g.instrInBlk = 0
	g.Instructions += uint64(adv)
	g.IFetches++
	r.Gap = uint32(adv)
	r.Kind = coherence.IFetch
	r.Addr = g.nextIBlock()
	r.Blocking = true // the front end stalls on an I-miss
}

// Profile returns the generator's benchmark profile.
func (g *Generator) Profile() Profile { return g.p }
