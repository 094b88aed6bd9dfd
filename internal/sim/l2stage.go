package sim

import (
	"cmpsim/internal/cache"
	"cmpsim/internal/coherence"
	"cmpsim/internal/memory"
	"cmpsim/internal/timing"
)

// l2Stage is the shared L2's timing stage: the banked access port
// (address-interleaved timing.Banks) and the latency constants, all
// quantized to ticks at construction. It prices every request that
// reaches the L2 — demand accesses and both prefetch fill shapes —
// and forwards misses to the memory stage. The hit-latency
// accumulators feed the MeanL2HitLatency metric.
type l2Stage struct {
	banks     *timing.Banks
	hitLat    timing.Tick // tag+data access of one bank
	decompLat timing.Tick // added for compressed hits / compressed fetches
	// decompOnFetch: lines arriving from memory need decompression
	// (link compression compresses the transfer; cache compression
	// stores the line compressed and the processor reads it back).
	decompOnFetch bool

	mem *memory.System

	hitLatSum timing.Tick // accumulated hit latency (demand hits only)
	hitLatN   uint64
}

// newL2Stage builds the stage from the validated Config (geometry and
// latencies) and the memory stage behind it.
func newL2Stage(cfg Config, mem *memory.System) (*l2Stage, error) {
	banks, err := timing.NewBanks(cfg.L2Banks, timing.FromCycles(cfg.L2BankOccupancy))
	if err != nil {
		return nil, err
	}
	return &l2Stage{
		banks:         banks,
		hitLat:        timing.FromCycles(cfg.L2HitCycles),
		decompLat:     timing.FromCycles(cfg.DecompressionCycles),
		decompOnFetch: cfg.LinkCompression || cfg.CacheCompression,
		mem:           mem,
	}, nil
}

// Demand prices an L1-missing demand access and returns the tick its
// data is on chip: bank reservation, then the hit latency (plus
// decompression / dirty-forward penalties) or the full memory round
// trip.
func (l *l2Stage) Demand(now timing.Tick, addr cache.BlockAddr, r *coherence.AccessResult) timing.Tick {
	st := l.banks.Acquire(uint64(addr), now)
	if r.L2Hit {
		lat := l.hitLat
		if r.L2CompressedHit {
			lat += l.decompLat
		}
		if r.DirtyForward {
			lat += l.hitLat // retrieve data from the remote L1
		}
		l.hitLatSum += lat
		l.hitLatN++
		return st + lat
	}
	// Miss: the request leaves the chip after the tag lookup.
	done := l.mem.Fetch(st+l.hitLat, addr, r.FetchSegs)
	if l.decompOnFetch {
		done += l.decompLat
	}
	return done
}

// FillForL1 prices an L1 prefetch fill served by the L2 (hit) or by
// memory.
func (l *l2Stage) FillForL1(now timing.Tick, addr cache.BlockAddr, out *coherence.PrefetchOutcome) timing.Tick {
	st := l.banks.Acquire(uint64(addr), now)
	if out.MemFetch {
		done := l.mem.Fetch(st+l.hitLat, addr, out.FetchSegs)
		if l.decompOnFetch {
			done += l.decompLat
		}
		return done
	}
	lat := l.hitLat
	if out.L2Compressed {
		lat += l.decompLat
	}
	return st + lat
}

// FillForL2 prices an L2 prefetch fill, always a memory fetch (no
// decompression — the line stays in its stored form until a demand
// reference reads it).
func (l *l2Stage) FillForL2(now timing.Tick, addr cache.BlockAddr, segs uint8) timing.Tick {
	st := l.banks.Acquire(uint64(addr), now)
	return l.mem.Fetch(st+l.hitLat, addr, segs)
}

// hitStats returns the demand-hit latency accumulators (totals
// snapshot support).
func (l *l2Stage) hitStats() (sum timing.Tick, n uint64) { return l.hitLatSum, l.hitLatN }

// CheckInvariants verifies the bank reservation state (audit support).
func (l *l2Stage) CheckInvariants() string { return l.banks.CheckInvariants() }
