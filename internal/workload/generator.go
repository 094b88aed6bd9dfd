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

// front is the front half every reference source shares: the core's
// RNG and private base, the instruction stream's code-block walk, the
// emission counters and the store/blocking draw. A kind embeds it and
// keeps its own sampleGap and dataRef; its Next keeps the data branch
// inline and hands the fetch branch to fetch.
type front struct {
	p        Profile
	rng      *rand.Rand
	privBase cache.BlockAddr

	iBlock     cache.BlockAddr // current code block (offset within footprint)
	iRun       int             // sequential blocks left before a branch away
	instrInBlk int             // instructions retired in the current block
	gapData    int             // instructions until the next data reference

	instructions, dataRefs, ifetches uint64
}

// init validates p, seeds the core's RNG with the kind's salt and draws
// the first code block.
func (f *front) init(p Profile, core int, seed int64, salt uint64) {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	f.p = p
	f.rng = rand.New(rand.NewSource(seed ^ int64(splitmix64(uint64(core)+salt))))
	f.privBase = privateBase + cache.BlockAddr(core)*(privateSize+coreSkew)
	if p.DataShared {
		f.privBase = privateBase // one footprint for all cores
	}
	f.iBlock = cache.BlockAddr(f.rng.Intn(p.IFootprint))
	f.iRun = p.ISeqRun
}

// fetch fills r with the instruction stream's move to its next code
// block after adv more instructions.
func (f *front) fetch(r *Ref, adv int) {
	f.gapData -= adv
	f.instrInBlk = 0
	f.instructions += uint64(adv)
	f.ifetches++
	if f.iRun > 0 {
		f.iRun--
		f.iBlock++
		if f.iBlock >= cache.BlockAddr(f.p.IFootprint) {
			f.iBlock = 0
		}
	} else {
		f.iBlock = cache.BlockAddr(f.rng.Intn(f.p.IFootprint))
		f.iRun = f.p.ISeqRun
	}
	r.Gap = uint32(adv)
	r.Kind = coherence.IFetch
	r.Addr = codeBase + f.iBlock
	r.Blocking = true // the front end stalls on an I-miss
}

// finishRef draws a data reference's kind and dependence.
func (f *front) finishRef(r *Ref) {
	if f.rng.Float64() < f.p.StoreFrac {
		r.Kind = coherence.Store
		r.Blocking = false
	} else {
		r.Kind = coherence.Load
		r.Blocking = f.rng.Float64() < f.p.BlockingFrac
	}
}

// Counts implements RefSource.
func (f *front) Counts() (instructions, dataRefs, ifetches uint64) {
	return f.instructions, f.dataRefs, f.ifetches
}

// Generator produces a core's strided reference stream for one
// benchmark: strided bursts, shared-region touches and hot/cold private
// references.
type Generator struct {
	front

	streams   []stream
	hotSpan   cache.BlockAddr
	strmBase  cache.BlockAddr
	strmWS    int
	burstLeft int     // strided refs remaining in the current burst
	burstIdx  int     // stream the burst walks
	pStrided  float64 // per-draw probability of entering a burst
}

// NewGenerator builds the per-core reference generator. Generators for
// different (core, seed) pairs are independent and deterministic.
func NewGenerator(p Profile, core int, seed int64) *Generator {
	g := &Generator{}
	g.init(p, core, seed, 0xABCD)
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
		g.instructions += uint64(adv)
		g.dataRefs++
		r.Gap = uint32(adv)
		g.dataRef(r)
		return
	}
	g.fetch(r, dI) // the instruction stream crosses into the next code block
}
