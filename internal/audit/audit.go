// Package audit implements the tiered runtime self-checker for the
// simulator. A silent state-corruption bug in the compressed-cache
// bookkeeping, the MSI directory or the flit accounting produces
// plausible-but-wrong speedup numbers rather than a crash; the audit
// layer turns such corruption into a structured, attributable failure.
//
// Three levels (Config.CheckLevel in internal/sim):
//
//   - Off: no checking, zero overhead (the default).
//   - Invariants: structural sweeps at event boundaries — per-set
//     segment accounting, LRU/tag integrity, MSI inclusion and sharer
//     bits, MSHR (in-flight table) sanity, stream-table bounds and link
//     flit conservation.
//   - Shadow: additionally runs a tiny functional reference model
//     (address → last globally-ordered version, plus an FPC
//     encode/decode roundtrip on every compressed L2 fill, resize and
//     victim writeback) cross-checking every load and L2 readback.
//
// A violation panics with a *Violation carrying cycle, core, set,
// address, invariant name and a state dump. internal/sim recovers it
// into an error return, and internal/core classifies it as a
// ReasonInvariant point failure, so studies degrade to
// FAILED(invariant:...) cells instead of publishing bad data.
//
// The auditor is strictly read-only over simulator state: it owns its
// shadow maps and scratch buffers, consumes no randomness and never
// mutates caches, so enabling any level leaves metrics bit-identical.
package audit

import (
	"bytes"
	"fmt"
	"os"
	"strings"

	"cmpsim/internal/cache"
	"cmpsim/internal/codec"
	"cmpsim/internal/timing"
)

// Level selects how much runtime checking a simulation performs.
type Level uint8

// Check levels, in increasing strictness (and cost).
const (
	Off Level = iota
	Invariants
	Shadow
)

// String spells the level the way the -check flag accepts it.
func (l Level) String() string {
	switch l {
	case Off:
		return "off"
	case Invariants:
		return "invariants"
	case Shadow:
		return "shadow"
	default:
		return fmt.Sprintf("Level(%d)", uint8(l))
	}
}

// Valid reports whether l is one of the three defined levels.
func (l Level) Valid() bool { return l <= Shadow }

// Enabled reports whether any checking is active.
func (l Level) Enabled() bool { return l > Off && l.Valid() }

// ParseLevel converts a -check flag value ("" means Off).
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "off":
		return Off, nil
	case "invariants":
		return Invariants, nil
	case "shadow":
		return Shadow, nil
	default:
		return Off, fmt.Errorf("audit: unknown check level %q (want off, invariants or shadow)", s)
	}
}

// EnvVar is the environment variable consulted by FromEnv (and through
// it by sim.NewConfig), letting CI force a check level onto every run
// without touching flags: CMPSIM_CHECK=shadow go test ./...
const EnvVar = "CMPSIM_CHECK"

// FromEnv returns the level requested by the CMPSIM_CHECK environment
// variable; unset or unparseable values mean Off (commands that take an
// explicit -check flag validate strictly instead).
func FromEnv() Level {
	l, err := ParseLevel(os.Getenv(EnvVar))
	if err != nil {
		return Off
	}
	return l
}

// Violation is the structured record of one failed invariant. It
// implements error and travels by panic from the check site to
// sim.Run's recover, then as a wrapped error through the PointError
// plumbing of internal/core.
type Violation struct {
	Invariant string      // invariant name (see the DESIGN.md catalog)
	Cycle     timing.Tick // core-clock tick of the failing check (max core Now)
	Core      int         // issuing core, or -1 when not attributable
	Set       int         // cache set, or -1 when not applicable
	Addr      uint64      // block address, or 0 when not applicable
	Detail    string      // state dump from the failing checker
}

// Error formats the full violation record.
func (v *Violation) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "audit: invariant %s violated at cycle %v", v.Invariant, v.Cycle)
	if v.Core >= 0 {
		fmt.Fprintf(&b, " (core %d)", v.Core)
	}
	if v.Set >= 0 {
		fmt.Fprintf(&b, " set %d", v.Set)
	}
	if v.Addr != 0 {
		fmt.Fprintf(&b, " addr %#x", v.Addr)
	}
	if v.Detail != "" {
		fmt.Fprintf(&b, ": %s", v.Detail)
	}
	return b.String()
}

// LineSource supplies current block contents for the shadow reference
// model; workload.DataModel implements it (FillLine is a pure function
// of its internal version map, so the auditor never perturbs it).
type LineSource interface {
	FillLine(a cache.BlockAddr, dst []byte)
}

// Auditor holds the shadow reference model and scratch buffers for one
// simulation run. It is not safe for concurrent use; each sim.System
// owns one.
type Auditor struct {
	level Level
	data  LineSource
	codec codec.Codec // sizes and roundtrips use the run's codec

	// Shadow value model: address → number of globally-ordered stores
	// observed via OnStore, cross-checked against the workload data
	// model's own version counter on every load.
	versions map[cache.BlockAddr]uint32
	// Shadow size model: address → segments recorded at the last L2
	// fill/resize, cross-checked against resident line state on sweeps.
	sizes map[cache.BlockAddr]uint8

	lineBuf [cache.LineBytes]byte
	decBuf  [cache.LineBytes]byte
	encBuf  []byte

	// Sweeps and ShadowChecks count completed check batches (test and
	// overhead-measurement support).
	Sweeps       uint64
	ShadowChecks uint64
}

// NewCodec builds an auditor for the given level whose shadow size
// checks and roundtrips use codec c — the same codec the simulation
// prices sizes with, or the "truth" comparison below would flag every
// fill. data supplies block contents for the shadow model and may be
// nil below Shadow.
func NewCodec(level Level, data LineSource, c codec.Codec) *Auditor {
	if !level.Valid() {
		panic(fmt.Sprintf("audit: invalid level %d", level))
	}
	a := &Auditor{level: level, data: data, codec: c}
	if level >= Shadow {
		if data == nil {
			panic("audit: shadow level requires a LineSource")
		}
		a.versions = make(map[cache.BlockAddr]uint32)
		a.sizes = make(map[cache.BlockAddr]uint8)
	}
	return a
}

// Level returns the active check level.
func (a *Auditor) Level() Level { return a.level }

// Fail raises a violation: it panics with a *Violation that sim.Run
// converts into an error return.
func (a *Auditor) Fail(invariant string, cycle timing.Tick, core, set int, addr cache.BlockAddr, detail string) {
	panic(&Violation{
		Invariant: invariant, Cycle: cycle, Core: core, Set: set,
		Addr: uint64(addr), Detail: detail,
	})
}

// Check raises a violation when a structural checker returned a
// non-empty detail string (the convention of the per-package
// CheckInvariants methods).
func (a *Auditor) Check(invariant string, cycle timing.Tick, detail string) {
	if detail != "" {
		a.Fail(invariant, cycle, -1, -1, 0, detail)
	}
}

// OnStore records one globally-ordered store to a in the shadow value
// model. Call it exactly where the simulator bumps the data model's
// version (workload.DataModel.Dirty).
func (a *Auditor) OnStore(addr cache.BlockAddr) {
	if a.level < Shadow {
		return
	}
	a.versions[addr]++
}

// OnLoad cross-checks one load (or ifetch/store read) against the
// shadow value model: the data model's version for addr must equal the
// store count the auditor observed. A mismatch means some path mutated
// block contents outside the globally-ordered store stream — the value
// a load returns would be wrong.
func (a *Auditor) OnLoad(cycle timing.Tick, core int, addr cache.BlockAddr, dataVersion uint32) {
	if a.level < Shadow {
		return
	}
	a.ShadowChecks++
	if want := a.versions[addr]; want != dataVersion {
		a.Fail("shadow-value", cycle, core, -1, addr,
			fmt.Sprintf("data model at version %d, shadow model at %d", dataVersion, want))
	}
}

// OnL2Data records a compressed-L2 fill or resize of addr at storedSegs
// and, at Shadow level, verifies the compression pipeline for the
// block's current contents: the codec's CompressedSizeSegments must
// equal storedSegs when the L2 stores compressed lines (exposing a
// corrupted size memo), and an encode/decode roundtrip must reproduce
// the line bit-exactly. (The invariant keeps its historical name
// shadow-fpc whatever the configured codec.)
func (a *Auditor) OnL2Data(cycle timing.Tick, addr cache.BlockAddr, storedSegs uint8, storesCompressed bool) {
	if a.level < Shadow {
		return
	}
	if storesCompressed {
		// The uncompressed L2 stores every line at MaxSegs regardless of
		// the reported compressed size, so the size model only applies to
		// compressed storage.
		a.sizes[addr] = storedSegs
	}
	a.ShadowChecks++
	a.data.FillLine(addr, a.lineBuf[:])
	truth := uint8(a.codec.CompressedSizeSegments(a.lineBuf[:]))
	if storesCompressed && truth != storedSegs {
		a.Fail("shadow-fpc", cycle, -1, -1, addr,
			fmt.Sprintf("L2 stored %d segments but contents compress to %d", storedSegs, truth))
	}
	a.roundTrip(cycle, addr, int(truth))
}

// OnWriteback cross-checks one off-chip victim writeback: the flit
// count the memory system was handed (sizeSegs, from the size memo)
// must match the block's current contents, which must also survive an
// FPC roundtrip.
func (a *Auditor) OnWriteback(cycle timing.Tick, addr cache.BlockAddr, sizeSegs uint8) {
	if a.level < Shadow {
		return
	}
	a.ShadowChecks++
	a.data.FillLine(addr, a.lineBuf[:])
	truth := uint8(a.codec.CompressedSizeSegments(a.lineBuf[:]))
	if truth != sizeSegs {
		a.Fail("shadow-fpc", cycle, -1, -1, addr,
			fmt.Sprintf("writeback sized at %d segments but contents compress to %d", sizeSegs, truth))
	}
	a.roundTrip(cycle, addr, int(truth))
}

// roundTrip verifies encode(line) → decode == line for the contents in
// lineBuf under the auditor's codec.
func (a *Auditor) roundTrip(cycle timing.Tick, addr cache.BlockAddr, segs int) {
	var err error
	a.encBuf, _ = a.codec.AppendEncode(a.encBuf[:0], a.lineBuf[:])
	if err = a.codec.DecodeInto(a.decBuf[:], a.encBuf, segs); err != nil {
		a.Fail("shadow-fpc", cycle, -1, -1, addr, fmt.Sprintf("decode failed: %v", err))
	}
	if !bytes.Equal(a.decBuf[:], a.lineBuf[:]) {
		a.Fail("shadow-fpc", cycle, -1, -1, addr,
			fmt.Sprintf("%s roundtrip did not reproduce the line", a.codec.Name()))
	}
}

// CheckL2Line verifies one resident L2 line against the shadow size
// model during a sweep: its stored segment count must still be what the
// last fill/resize recorded (anything else means the tag state was
// mutated outside the fill/resize protocol).
func (a *Auditor) CheckL2Line(cycle timing.Tick, ln *cache.Line) {
	if a.level < Shadow {
		return
	}
	if want, ok := a.sizes[ln.Addr]; ok && want != ln.Segs {
		a.Fail("shadow-l2-size", cycle, -1, -1, ln.Addr,
			fmt.Sprintf("resident line holds %d segments, last fill/resize recorded %d", ln.Segs, want))
	}
}

// CheckVersions sweeps the shadow value model against the data model's
// version reader (fn iterates every (addr, version) pair the data model
// holds). It reports the lowest mismatching address deterministically.
func (a *Auditor) CheckVersions(cycle timing.Tick, forEach func(func(cache.BlockAddr, uint32))) {
	if a.level < Shadow {
		return
	}
	var badAddr cache.BlockAddr
	var badData, badShadow uint32
	found := false
	forEach(func(addr cache.BlockAddr, v uint32) {
		if a.versions[addr] != v && (!found || addr < badAddr) {
			found = true
			badAddr, badData, badShadow = addr, v, a.versions[addr]
		}
	})
	if found {
		a.Fail("shadow-value", cycle, -1, -1, badAddr,
			fmt.Sprintf("data model at version %d, shadow model at %d", badData, badShadow))
	}
}
