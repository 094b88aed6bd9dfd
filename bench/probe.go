package main

import (
	"crypto/sha256"
	"time"
)

// The reference host shares its memory system with other tenants, and
// their load moves the simulator's speed by up to 2x over tens of
// seconds; a median over one run cannot remove a drift that long. So
// every timed op (a sim, a sweep pass, a fleet batch) is bracketed by a
// reference probe: a fixed mix of hashing (ALU), random reads and writes
// over a 2 MB table and Go map churn — no cmpsim code, so no change to
// cmpsim can move it. Its time tracks the host's current speed, and each
// op's time is scaled by probeNominal / (the mean of its two probes),
// which halved the run-to-run spread of the serial workloads' sim_mips
// on the reference host. The timed end-to-end metrics are therefore the
// values the host would give at the probe's nominal speed; every run
// prints the unscaled values and the measured speed beside them.

// probeNominal is the probe's time on a quiet 2-vCPU Xeon host.
const probeNominal = 50 * time.Millisecond

// probe is the reference workload and its private state.
type probe struct {
	buf   []byte
	table []uint64
	m     map[uint64]uint64
	sink  uint64
}

func newProbe() *probe {
	p := &probe{buf: make([]byte, 64<<10), table: make([]uint64, 256<<10), m: make(map[uint64]uint64, 64<<10)}
	p.work() // reach the map's steady state before any timed call
	return p
}

func (p *probe) work() {
	for i := 0; i < 400; i++ {
		s := sha256.Sum256(p.buf)
		p.sink += uint64(s[0])
	}
	x := uint64(88172645463325252)
	for i := 0; i < 2_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (256<<10 - 1)
		p.sink += p.table[j]
		p.table[j] = x
	}
	for i := 0; i < 600_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := x & (64<<10 - 1)
		if v, ok := p.m[k]; ok {
			p.sink += v
			if x&7 == 0 {
				delete(p.m, k)
			}
		} else {
			p.m[k] = x
		}
	}
}

// measure runs the probe once and returns its time.
func (p *probe) measure() time.Duration {
	t0 := time.Now()
	p.work()
	return time.Since(t0)
}

// speed returns how many times faster than nominal the host ran across
// an op bracketed by probes of time before and after.
func speed(before, after time.Duration) float64 {
	return float64(probeNominal) / (float64(before+after) / 2)
}
