package sim

// Runtime self-checking: this file wires internal/audit's tiered
// checker into the simulation loop. At CheckLevel Invariants the
// auditor sweeps every structural invariant (cache set accounting, MSI
// inclusion/ownership, prefetch stream bounds, link flit conservation,
// MSHR leaks) at a fixed step cadence plus phase boundaries; at Shadow
// it additionally cross-checks every load and every compressed L2 fill
// against a functional reference model. A violation panics with
// *audit.Violation, which Run converts into an ordinary error so the
// failure flows through internal/core's point-failure pipeline as a
// structured FAILED(invariant:...) cell.
//
// StateFault deliberately corrupts one piece of simulator state at a
// chosen step ("name@step") so tests can prove each auditor class
// actually fires; see stateFaults for the catalog.

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"cmpsim/internal/audit"
	"cmpsim/internal/cache"
	"cmpsim/internal/timing"
)

// defaultCheckInterval is the sweep cadence in simulation steps when
// Config.CheckInterval is zero.
const defaultCheckInterval = 65536

// stateFaults maps each injectable corruption to the audit level that
// must catch it (structural faults trip at Invariants; value/size
// faults need the Shadow reference model).
var stateFaults = map[string]audit.Level{
	"flip-sharer":    audit.Invariants, // sharer bit for a core without the line
	"double-owner":   audit.Invariants, // owner set to a core without a dirty copy
	"corrupt-segs":   audit.Invariants, // L2 line's segment count zeroed
	"dup-tag":        audit.Invariants, // two tags in one set map the same block
	"corrupt-stream": audit.Invariants, // stream-table entry with a zero stride
	"drop-flit":      audit.Invariants, // fetch flit counted but never sent
	"leak-mshr":      audit.Invariants, // in-flight entry that never completes
	"corrupt-value":  audit.Shadow,     // block contents change without a store
	"corrupt-size":   audit.Shadow,     // size memo disagrees with contents
}

// StateFaultNames lists the injectable state corruptions, sorted.
func StateFaultNames() []string {
	names := make([]string, 0, len(stateFaults))
	for n := range stateFaults {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// parseStateFault splits a "name@step" spec and validates both halves.
func parseStateFault(spec string) (name string, step uint64, err error) {
	name, at, ok := strings.Cut(spec, "@")
	if !ok {
		return "", 0, fmt.Errorf("sim: state fault %q not of the form name@step", spec)
	}
	if _, known := stateFaults[name]; !known {
		return "", 0, fmt.Errorf("sim: unknown state fault %q (have %s)", name, strings.Join(StateFaultNames(), ", "))
	}
	step, err = strconv.ParseUint(at, 10, 64)
	if err != nil || step == 0 {
		return "", 0, fmt.Errorf("sim: state fault %q needs a positive step number", spec)
	}
	return name, step, nil
}

// initAudit installs the auditor and the state-fault trigger on a
// freshly built system (cfg already validated).
func (s *System) initAudit(cfg Config) {
	if cfg.StateFault != "" {
		s.faultName, s.faultAt, _ = parseStateFault(cfg.StateFault)
	}
	if !cfg.CheckLevel.Enabled() {
		return
	}
	s.aud = audit.NewCodec(cfg.CheckLevel, s.data, s.codec)
	s.checkEvery = cfg.CheckInterval
	if s.checkEvery == 0 {
		s.checkEvery = defaultCheckInterval
	}
	if cfg.CheckLevel >= audit.Shadow {
		storesCompressed := s.h.L2.StoresCompressed()
		s.h.OnL2Size = func(a cache.BlockAddr, segs uint8) {
			s.aud.OnL2Data(s.maxCoreNow(), a, segs, storesCompressed)
		}
	}
}

// auditStep runs the per-step audit work: the state-fault trigger
// (followed by an immediate sweep so a corruption cannot be healed by
// later protocol activity before the next periodic sweep) and the
// cadenced structural sweep.
func (s *System) auditStep() {
	if s.faultAt != 0 && s.steps == s.faultAt {
		s.applyStateFault()
		s.auditSweep()
	}
	if s.aud != nil && s.steps%s.checkEvery == 0 {
		s.auditSweep()
	}
}

// auditSweep checks every structural invariant across the hierarchy,
// prefetch engines, memory system and MSHR table; at Shadow level it
// also re-verifies every resident compressed line's size and the whole
// value model. Pure reads: it never mutates simulated state.
func (s *System) auditSweep() {
	a := s.aud
	if a == nil {
		return
	}
	now := s.maxCoreNow()
	for i := range s.h.L1I {
		a.Check("l1-set-state", now, s.h.L1I[i].CheckInvariants())
		a.Check("l1-set-state", now, s.h.L1D[i].CheckInvariants())
	}
	a.Check("l2-set-state", now, s.h.L2.CheckInvariants())
	a.Check("msi", now, s.h.AuditMSI())
	for c := range s.fe.engL1I {
		a.Check("stream-bounds", now, s.fe.engL1I[c].CheckInvariants())
		a.Check("stream-bounds", now, s.fe.engL1D[c].CheckInvariants())
		a.Check("stream-bounds", now, s.fe.engL2[c].CheckInvariants())
	}
	a.Check("flit-conservation", now, s.mem.CheckInvariants())
	a.Check("resource-state", now, s.l2.CheckInvariants())
	s.checkInflight(a, now)
	if a.Level() >= audit.Shadow {
		s.h.L2.ForEachValid(func(ln *cache.Line) { a.CheckL2Line(now, ln) })
		a.CheckVersions(now, s.data.ForEachVersion)
	}
	a.Sweeps++
}

// checkInflight audits the MSHR-equivalent in-flight prefetch table:
// completion ticks must be non-negative and not absurdly far beyond
// the current tick (a leaked entry never resolves and would otherwise
// linger unnoticed, since pruning only removes past entries).
func (s *System) checkInflight(a *audit.Auditor, now timing.Tick) {
	// Generous bound: no fetch takes 10^10 cycles (any larger multiple
	// of TicksPerCycle would not fit the int64 tick domain).
	const horizon = 10_000_000_000 * timing.TicksPerCycle
	var badAddr cache.BlockAddr
	var badT timing.Tick
	found := false
	s.inflight.forEach(func(addr cache.BlockAddr, t timing.Tick) {
		if t < 0 || t > now+horizon {
			if !found || addr < badAddr {
				badAddr, badT, found = addr, t, true
			}
		}
	})
	if found {
		a.Fail("mshr-inflight", now, -1, -1, badAddr,
			fmt.Sprintf("in-flight completion time %v with current cycle %v", badT, now))
	}
}

// auditWriteback routes a dirty-line writeback through the shadow model
// (size cross-check) before handing it to the memory system. Without a
// data model nothing prices the line, so it goes at its full size.
func (s *System) auditWriteback(now timing.Tick, wb cache.BlockAddr) {
	segs := uint8(cache.MaxSegs)
	if s.data != nil {
		segs = s.data.SizeOf(wb)
	}
	if s.aud != nil {
		s.aud.OnWriteback(now, wb, segs)
	}
	s.mem.Writeback(now, wb, segs)
}

// applyStateFault performs the configured corruption. Each rule targets
// live state so the matching auditor class (see stateFaults) must trip
// on the immediately following sweep — or, for the latent shadow
// faults, on the next fill or writeback that consumes the poisoned
// state.
func (s *System) applyStateFault() {
	switch s.faultName {
	case "flip-sharer":
		// Set a sharer bit for a core that does not hold the line (or,
		// if every core holds the first line, an out-of-range bit).
		done := false
		s.h.L2.ForEachValid(func(ln *cache.Line) {
			if done {
				return
			}
			for c := 0; c < s.cfg.Cores; c++ {
				if ln.Sharers&(1<<uint(c)) == 0 && !s.h.L1D[c].Lookup(ln.Addr).Valid() {
					ln.Sharers |= 1 << uint(c)
					done = true
					return
				}
			}
			if s.cfg.Cores < 32 {
				ln.Sharers |= 1 << uint(s.cfg.Cores)
				done = true
			}
		})
	case "double-owner":
		// Claim ownership for a core without a modified copy.
		done := false
		s.h.L2.ForEachValid(func(ln *cache.Line) {
			if done {
				return
			}
			for c := 0; c < s.cfg.Cores; c++ {
				if !s.h.L1D[c].Lookup(ln.Addr).Dirty() {
					ln.Owner = int8(c)
					done = true
					return
				}
			}
		})
	case "corrupt-segs", "dup-tag":
		if s.faultName == "dup-tag" {
			if cl2, ok := s.h.L2.(cache.CompressedL2); ok && cl2.InjectDuplicateTag() {
				return
			}
			// No set had a spare tag (or the L2 is uncompressed): fall
			// through to the segment corruption, same invariant class.
		}
		done := false
		s.h.L2.ForEachValid(func(ln *cache.Line) {
			if !done {
				ln.Segs = 0
				done = true
			}
		})
	case "corrupt-stream":
		if eng, ok := s.fe.engL1D[0].(interface{ CorruptStream() }); ok {
			eng.CorruptStream()
		} else {
			panic("sim: corrupt-stream fault requires a prefetcher with stream state")
		}
	case "drop-flit":
		s.mem.FetchFlits++
	case "leak-mshr":
		s.inflight.put(cache.BlockAddr(0xDEAD_BEEF), timing.Tick(1)<<62)
	case "corrupt-value":
		// Mutate block contents without telling the shadow model.
		s.data.Dirty(s.ref.Addr)
	case "corrupt-size":
		// Poison the size memo from here on: the next compressed fill
		// or writeback stores a size that disagrees with the contents.
		s.data.PoisonNextSizes(1 << 30)
	default:
		panic(fmt.Sprintf("sim: unknown state fault %q", s.faultName))
	}
}
