// Package timing is the simulator's integer time domain. Every
// timestamp, latency and busy-until reservation in the timing model is
// a Tick: a 64-bit integer counting fixed-point sub-cycle units, with
// TicksPerCycle ticks to one core clock cycle. Integer time makes the
// simulation bit-deterministic across platforms and compilers — there
// is no float summation whose rounding depends on evaluation order —
// and keeps the hot path in integer arithmetic.
//
// Rounding contract: float quantities cross into the tick domain in
// exactly two places, both at construction time, never per event.
//
//   - Latencies and per-instruction costs (cycle-valued Config fields
//     such as L2HitCycles, DecompressionCycles, BaseCPI) convert via
//     FromCycles, which rounds to the nearest tick, ties away from
//     zero. With 24 sub-cycle bits the worst-case error is 2^-25 of a
//     cycle on the constant, applied consistently to every event that
//     uses it.
//   - Bandwidths convert via CostPerByte, which fixes the per-byte
//     channel occupancy to the nearest tick once; message occupancy is
//     then the exact integer product bytes × cost.
//
// Inside the domain all arithmetic is exact. Ticks convert back to
// float64 cycles (Cycles) only in the stats/reporting layer.
package timing

import "fmt"

// SubCycleBits is the fixed-point fraction width: a cycle subdivides
// into 2^SubCycleBits ticks. 24 bits keep quantization error below
// 2^-25 of a cycle per constant while leaving headroom for ~5×10^11
// cycles of simulated time in an int64.
const SubCycleBits = 24

// TicksPerCycle is the number of ticks in one core clock cycle.
const TicksPerCycle = 1 << SubCycleBits

// Tick is a point in simulated time (or a duration) in fixed-point
// sub-cycle units. The zero Tick is the start of the simulation.
type Tick int64

// FromCycles converts a cycle count to ticks, rounding to the nearest
// tick with ties away from zero. This is the only sanctioned
// float→tick conversion for latencies; call it at configuration time,
// not per event.
func FromCycles(cycles float64) Tick {
	scaled := cycles * TicksPerCycle
	if scaled >= 0 {
		return Tick(scaled + 0.5)
	}
	return Tick(scaled - 0.5)
}

// FromIntCycles converts a whole-cycle count to ticks exactly.
func FromIntCycles(cycles int64) Tick { return Tick(cycles) * TicksPerCycle }

// ExactCycles converts a cycle count to ticks and reports whether the
// conversion is exact — i.e. cycles is representable in the fixed-point
// tick domain with no rounding. Config validation uses it to reject
// latencies (such as per-codec decompression cycles) that would
// silently drift between the pricing and reporting paths: any multiple
// of 2^-24 cycles is exact, so whole and half cycle values always pass.
func ExactCycles(cycles float64) (Tick, bool) {
	t := FromCycles(cycles)
	return t, float64(t) == cycles*TicksPerCycle
}

// Cycles converts t back to float64 cycles (reporting only).
func (t Tick) Cycles() float64 { return float64(t) / TicksPerCycle }

// String formats t as a cycle count for error messages and dumps.
func (t Tick) String() string { return fmt.Sprintf("%.4fcy", t.Cycles()) }

// CostPerByte converts a channel bandwidth in bytes per cycle to the
// tick cost of one byte, rounding to the nearest tick (ties away from
// zero). A zero bandwidth models an infinite channel and returns 0.
// The bandwidth is thereby quantized once, at construction: a message
// of n bytes occupies exactly n × CostPerByte ticks.
func CostPerByte(bytesPerCycle float64) (Tick, error) {
	if bytesPerCycle < 0 {
		return 0, fmt.Errorf("timing: negative bandwidth %g bytes/cycle", bytesPerCycle)
	}
	if bytesPerCycle == 0 {
		return 0, nil
	}
	c := FromCycles(1 / bytesPerCycle)
	if c <= 0 {
		return 0, fmt.Errorf("timing: bandwidth %g bytes/cycle exceeds the tick resolution (%d ticks/cycle)",
			bytesPerCycle, TicksPerCycle)
	}
	return c, nil
}

// Max returns the later of two ticks.
func Max(a, b Tick) Tick {
	if a > b {
		return a
	}
	return b
}

// Min returns the earlier of two ticks.
func Min(a, b Tick) Tick {
	if a < b {
		return a
	}
	return b
}
