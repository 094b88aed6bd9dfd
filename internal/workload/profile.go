// Package workload synthesizes per-core instruction and memory
// reference streams that stand in for the paper's eight benchmarks:
// the four Wisconsin commercial workloads (apache, zeus, oltp, jbb) and
// four SPEComp2001 benchmarks (art, apsi, fma3d, mgrid).
//
// Real traces of these workloads are proprietary and require full-system
// simulation; instead each benchmark is a Profile whose parameters are
// set to reproduce the paper's *measured inputs* — per-benchmark data
// compressibility (Table 3), prefetcher trainability and stream lengths
// (Table 4's coverage/accuracy split between commercial and scientific
// codes), instruction footprints (commercial codes miss heavily in the
// L1I; SPEComp codes almost never do), working-set sizes and sharing.
// Downstream results (speedups, interactions) then emerge from the
// simulated mechanisms rather than from tuning outputs directly.
package workload

import (
	"fmt"
	"sort"
)

// Class distinguishes the benchmark suites.
type Class uint8

// Benchmark classes. Irregular marks the linked-data-structure suite
// (pointer chasing, hash probing, B-tree walks, service mixes) that
// extends the paper's eight stride-friendly workloads.
const (
	Commercial Class = iota
	SPEComp
	Irregular
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case Commercial:
		return "commercial"
	case SPEComp:
		return "SPEComp"
	default:
		return "irregular"
	}
}

// Profile parameterizes one synthetic benchmark.
type Profile struct {
	Name  string
	Class Class

	// Core behaviour.
	BaseCPI      float64 // CPI on non-memory work
	MemPer1000   float64 // data references per 1000 instructions
	StoreFrac    float64 // fraction of data references that are stores
	BlockingFrac float64 // fraction of loads whose consumer is near
	// (stalls the core); SPEComp codes are compiled
	// with software prefetching (non-blocking loads),
	// so theirs is low

	// Instruction stream.
	InstrPerIBlock int // instructions per 64-byte code block (~16)
	IFootprint     int // code working set in blocks (shared by all cores)
	ISeqRun        int // sequential code blocks between branches off-block

	// Strided data component (what the stride prefetchers can cover).
	// Streams walk their own region of StreamWS blocks (scanned arrays,
	// log buffers, allocation arenas); it is deliberately separate from
	// the irregular working set because the paper finds the miss sets
	// targeted by prefetching (long scans, far down the LRU stack) and
	// by compression (within 2x of the LRU stack depth) nearly disjoint
	// (Fig. 8). When StreamWS is 0 streams walk the irregular region.
	StridedFrac float64 // fraction of data refs from strided streams
	StreamLen   int     // blocks a stream runs before re-seeding
	Streams     int     // concurrent streams per core
	Strides     []int64 // stride choices in blocks
	StreamWS    int     // stream region size in blocks (0: use PrivateWS)
	// BurstLen > 1 clusters strided references: entering the strided
	// component emits a run of BurstLen back-to-back stream touches with
	// ~BurstGap instructions between them (a vectorized inner loop
	// sweeping arrays). Bursts give the SPEComp codes their high
	// memory-level parallelism; the long-run strided fraction still
	// matches StridedFrac.
	BurstLen int
	BurstGap float64

	// Irregular data component. When DataShared is true the main data
	// region is one footprint shared by all cores (the commercial
	// workloads' database/file-cache pages: total working set does not
	// grow with core count); otherwise each core gets a private region
	// (the SPEComp data-parallel tiles).
	DataShared bool
	SharedFrac float64 // fraction of data refs to the high-contention shared region
	PrivateWS  int     // private working set per core, in blocks
	SharedWS   int     // shared working set, in blocks
	HotFrac    float64 // fraction of the working set that is hot
	HotProb    float64 // probability an irregular ref hits the hot set

	// Data contents.
	TargetRatio    float64 // Table 3 cache compression ratio to calibrate to
	StoreDirtyProb float64 // probability a store changes a block's
	// compressed size (version bump)

	// Reference-source selection. Kind names the RefSource that builds
	// this profile's stream ("" = the strided Generator above); the
	// registry in source.go maps names to factories. Any kind can be
	// forced onto any profile (sim.Config.RefSource), so the generic
	// fields above must stay valid for irregular profiles too.
	Kind string

	// Linked-data-structure parameters, used by the irregular kinds;
	// zero values take per-kind defaults derived from the working sets.
	ChaseLen   int    // pointer hops before re-heading at a new list head
	TreeFanout int    // B-tree branching factor
	TreeLevels int    // B-tree depth including the leaf level
	PhaseInstr uint64 // service-mix phase length in instructions
}

// Validate reports the first configuration error.
func (p Profile) Validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("workload: profile has no name")
	case p.BaseCPI <= 0:
		return fmt.Errorf("workload %s: BaseCPI must be positive", p.Name)
	case p.MemPer1000 <= 0 || p.MemPer1000 > 1000:
		return fmt.Errorf("workload %s: MemPer1000 out of range", p.Name)
	case p.StoreFrac < 0 || p.StoreFrac > 1 || p.BlockingFrac < 0 || p.BlockingFrac > 1:
		return fmt.Errorf("workload %s: fractions must be in [0,1]", p.Name)
	case p.InstrPerIBlock < 1 || p.IFootprint < 1 || p.ISeqRun < 1:
		return fmt.Errorf("workload %s: instruction-stream parameters must be positive", p.Name)
	case p.StridedFrac < 0 || p.StridedFrac > 1:
		return fmt.Errorf("workload %s: StridedFrac out of range", p.Name)
	case p.StridedFrac > 0 && (p.StreamLen < 1 || p.Streams < 1 || len(p.Strides) == 0):
		return fmt.Errorf("workload %s: stream parameters required with StridedFrac > 0", p.Name)
	case p.SharedFrac < 0 || p.SharedFrac+p.StridedFrac > 1:
		return fmt.Errorf("workload %s: StridedFrac+SharedFrac exceeds 1", p.Name)
	case p.PrivateWS < 1 || p.SharedWS < 1:
		return fmt.Errorf("workload %s: working sets must be positive", p.Name)
	case p.HotFrac <= 0 || p.HotFrac > 1 || p.HotProb < 0 || p.HotProb > 1:
		return fmt.Errorf("workload %s: hot-set parameters out of range", p.Name)
	case p.TargetRatio < 1 || p.TargetRatio > 2:
		return fmt.Errorf("workload %s: TargetRatio must be in [1,2]", p.Name)
	case p.StoreDirtyProb < 0 || p.StoreDirtyProb > 1:
		return fmt.Errorf("workload %s: StoreDirtyProb out of range", p.Name)
	case p.BurstLen < 0 || (p.BurstLen > 1 && p.BurstGap <= 0):
		return fmt.Errorf("workload %s: BurstLen needs a positive BurstGap", p.Name)
	case !SourceRegistered(p.Kind):
		return fmt.Errorf("workload %s: unknown reference-source kind %q (have %v)", p.Name, p.Kind, SourceNames())
	case p.ChaseLen < 0 || p.TreeFanout < 0 || p.TreeLevels < 0:
		return fmt.Errorf("workload %s: linked-structure parameters must be non-negative", p.Name)
	}
	return nil
}

// profiles is the benchmark table. Working sets are in 64-byte blocks
// (65536 blocks = 4 MB, the shared L2's size).
var profiles = map[string]Profile{
	// Commercial workloads: large shared instruction footprints (heavy
	// L1I miss traffic), mostly-irregular data with hot/cold locality,
	// short trainable strides, significant sharing, compressible
	// integer/pointer data, many dependent loads. The reference stream
	// is the block-novel access stream (L1-relevant touches); pure
	// within-block reuse is folded into BaseCPI.
	"apache": {
		Name: "apache", Class: Commercial,
		BaseCPI: 0.60, MemPer1000: 60, StoreFrac: 0.30, BlockingFrac: 0.55,
		InstrPerIBlock: 16, IFootprint: 2000, ISeqRun: 6,
		StridedFrac: 0.042, StreamLen: 16, Streams: 4, Strides: []int64{1}, StreamWS: 400000,
		DataShared: true, SharedFrac: 0.083, PrivateWS: 110000, SharedWS: 3000,
		HotFrac: 0.028, HotProb: 0.876,
		TargetRatio: 1.50, StoreDirtyProb: 0.30,
	},
	"zeus": {
		Name: "zeus", Class: Commercial,
		BaseCPI: 0.60, MemPer1000: 60, StoreFrac: 0.25, BlockingFrac: 0.55,
		InstrPerIBlock: 16, IFootprint: 1700, ISeqRun: 7,
		StridedFrac: 0.0475, StreamLen: 20, Streams: 4, Strides: []int64{1}, StreamWS: 400000,
		DataShared: true, SharedFrac: 0.063, PrivateWS: 110000, SharedWS: 2500,
		HotFrac: 0.03, HotProb: 0.884,
		TargetRatio: 1.45, StoreDirtyProb: 0.25,
	},
	"oltp": {
		Name: "oltp", Class: Commercial,
		BaseCPI: 0.65, MemPer1000: 65, StoreFrac: 0.35, BlockingFrac: 0.60,
		InstrPerIBlock: 16, IFootprint: 4000, ISeqRun: 4,
		StridedFrac: 0.025, StreamLen: 12, Streams: 3, Strides: []int64{1}, StreamWS: 400000,
		DataShared: true, SharedFrac: 0.135, PrivateWS: 160000, SharedWS: 4000,
		HotFrac: 0.02, HotProb: 0.854,
		TargetRatio: 1.70, StoreDirtyProb: 0.30,
	},
	"jbb": {
		Name: "jbb", Class: Commercial,
		BaseCPI: 0.60, MemPer1000: 60, StoreFrac: 0.30, BlockingFrac: 0.55,
		InstrPerIBlock: 16, IFootprint: 1000, ISeqRun: 8,
		// Short allocation-burst streams: trainable, but the 25-deep L2
		// prefetcher overshoots them badly (the paper's 32% L2 accuracy)
		// while the resident working set is pollution-sensitive.
		StridedFrac: 0.0825, StreamLen: 10, Streams: 4, Strides: []int64{1}, StreamWS: 50000,
		SharedFrac: 0.045, PrivateWS: 40000, SharedWS: 2000,
		HotFrac: 0.06, HotProb: 0.922,
		TargetRatio: 1.80, StoreDirtyProb: 0.35,
	},

	// SPEComp benchmarks: tiny code loops, long regular strides with
	// high memory-level parallelism (software-prefetch-style
	// non-blocking loads), little sharing, floating-point data that FPC
	// barely compresses.
	"art": {
		Name: "art", Class: SPEComp,
		BaseCPI: 0.55, MemPer1000: 120, StoreFrac: 0.20, BlockingFrac: 0.15,
		InstrPerIBlock: 16, IFootprint: 100, ISeqRun: 40,
		StridedFrac: 0.045, StreamLen: 200, Streams: 4, Strides: []int64{1, 1, 2}, StreamWS: 40000,
		BurstLen: 10, BurstGap: 4,
		SharedFrac: 0.02, PrivateWS: 30000, SharedWS: 2000,
		HotFrac: 0.04, HotProb: 0.95,
		TargetRatio: 1.15, StoreDirtyProb: 0.20,
	},
	"apsi": {
		Name: "apsi", Class: SPEComp,
		BaseCPI: 0.55, MemPer1000: 100, StoreFrac: 0.25, BlockingFrac: 0.15,
		InstrPerIBlock: 16, IFootprint: 150, ISeqRun: 40,
		StridedFrac: 0.05, StreamLen: 400, Streams: 3, Strides: []int64{1}, StreamWS: 60000,
		BurstLen: 12, BurstGap: 4,
		SharedFrac: 0.02, PrivateWS: 4000, SharedWS: 2000,
		HotFrac: 0.02, HotProb: 0.998,
		TargetRatio: 1.01, StoreDirtyProb: 0.15,
	},
	"fma3d": {
		Name: "fma3d", Class: SPEComp,
		BaseCPI: 0.55, MemPer1000: 120, StoreFrac: 0.35, BlockingFrac: 0.12,
		InstrPerIBlock: 16, IFootprint: 400, ISeqRun: 25,
		// Streaming working set far beyond even a doubled cache: the
		// paper's bandwidth-bound benchmark (27.7 GB/s demand).
		StridedFrac: 0.10, StreamLen: 100, Streams: 6, Strides: []int64{1, 2}, StreamWS: 300000,
		BurstLen: 6, BurstGap: 6,
		SharedFrac: 0.02, PrivateWS: 120000, SharedWS: 2000,
		HotFrac: 0.008, HotProb: 0.92,
		TargetRatio: 1.19, StoreDirtyProb: 0.25,
	},
	"mgrid": {
		Name: "mgrid", Class: SPEComp,
		BaseCPI: 0.55, MemPer1000: 105, StoreFrac: 0.25, BlockingFrac: 0.20,
		InstrPerIBlock: 16, IFootprint: 120, ISeqRun: 40,
		StridedFrac: 0.08, StreamLen: 400, Streams: 3, Strides: []int64{1, 2, 3}, StreamWS: 60000,
		BurstLen: 12, BurstGap: 4,
		SharedFrac: 0.02, PrivateWS: 4000, SharedWS: 2000,
		HotFrac: 0.03, HotProb: 0.995,
		TargetRatio: 1.08, StoreDirtyProb: 0.15,
	},

	// Irregular workloads: linked-data-structure traversals whose next
	// address is data-dependent (the access classes the pointer-chase
	// prefetcher literature targets). StridedFrac is 0 — there is no
	// trainable stride component by construction — but every generic
	// field stays valid so the strided Generator can be forced onto
	// these profiles for A/B runs (sim.Config.RefSource = "strided").
	"ptrchase": {
		Name: "ptrchase", Class: Irregular, Kind: "ptrchase",
		BaseCPI: 0.65, MemPer1000: 70, StoreFrac: 0.15, BlockingFrac: 0.90,
		InstrPerIBlock: 16, IFootprint: 1200, ISeqRun: 8,
		SharedFrac: 0.05, PrivateWS: 180000, SharedWS: 3000,
		HotFrac: 0.05, HotProb: 0.60,
		TargetRatio: 1.55, StoreDirtyProb: 0.25,
		ChaseLen: 96,
	},
	"hashprobe": {
		Name: "hashprobe", Class: Irregular, Kind: "hashprobe",
		BaseCPI: 0.60, MemPer1000: 80, StoreFrac: 0.25, BlockingFrac: 0.65,
		InstrPerIBlock: 16, IFootprint: 1500, ISeqRun: 6,
		SharedFrac: 0.08, PrivateWS: 140000, SharedWS: 3000,
		HotFrac: 0.04, HotProb: 0.70,
		TargetRatio: 1.60, StoreDirtyProb: 0.30,
		ChaseLen: 4, // mean collision-chain length in blocks
	},
	"btree": {
		Name: "btree", Class: Irregular, Kind: "btree",
		BaseCPI: 0.62, MemPer1000: 65, StoreFrac: 0.20, BlockingFrac: 0.80,
		InstrPerIBlock: 16, IFootprint: 1800, ISeqRun: 6,
		SharedFrac: 0.06, PrivateWS: 160000, SharedWS: 3000,
		HotFrac: 0.03, HotProb: 0.75,
		TargetRatio: 1.65, StoreDirtyProb: 0.25,
		TreeFanout: 16, TreeLevels: 5,
	},
	"srvmix": {
		Name: "srvmix", Class: Irregular, Kind: "srvmix",
		BaseCPI: 0.60, MemPer1000: 60, StoreFrac: 0.30, BlockingFrac: 0.60,
		InstrPerIBlock: 16, IFootprint: 2200, ISeqRun: 5,
		DataShared: true, SharedFrac: 0.10, PrivateWS: 150000, SharedWS: 4000,
		HotFrac: 0.04, HotProb: 0.80,
		TargetRatio: 1.50, StoreDirtyProb: 0.30,
		ChaseLen: 64, PhaseInstr: 200_000,
	},
}

// Names returns all benchmark names, commercial first, then SPEComp,
// then the irregular suite, each group alphabetical (the paper's
// presentation order uses apache, zeus, oltp, jbb, art, apsi, fma3d,
// mgrid; PaperOrder gives that exact order, IrregularOrder the
// irregular suite's).
func Names() []string {
	var names []string
	for n := range profiles {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		pi, pj := profiles[names[i]], profiles[names[j]]
		if pi.Class != pj.Class {
			return pi.Class < pj.Class
		}
		return names[i] < names[j]
	})
	return names
}

// PaperOrder lists the benchmarks in the order the paper's figures use.
func PaperOrder() []string {
	return []string{"apache", "zeus", "oltp", "jbb", "art", "apsi", "fma3d", "mgrid"}
}

// IrregularOrder lists the irregular suite in presentation order:
// pure pointer chasing first, then the structured traversals, then the
// phased service mix.
func IrregularOrder() []string {
	return []string{"ptrchase", "hashprobe", "btree", "srvmix"}
}

// ByName returns the named profile.
func ByName(name string) (Profile, error) {
	p, ok := profiles[name]
	if !ok {
		return Profile{}, fmt.Errorf("workload: unknown benchmark %q (have %v)", name, Names())
	}
	return p, nil
}

// MustByName is ByName for tests and examples with known-good names.
func MustByName(name string) Profile {
	p, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return p
}
