package prefetch

import "cmpsim/internal/cache"

// Prefetcher is the interface the simulation engine drives; the
// stride Engine is the paper's prefetcher, and Sequential is the
// adaptive sequential (unit-stride, Dahlgren-style) baseline from the
// paper's related-work discussion, provided for comparison studies.
type Prefetcher interface {
	// OnAccess observes a demand access (hit or miss) and may return
	// prefetch addresses (valid until the next call).
	OnAccess(a cache.BlockAddr) []cache.BlockAddr
	// OnMiss observes a demand miss and may return prefetch addresses.
	OnMiss(a cache.BlockAddr) []cache.BlockAddr
	// TriggerStream starts a stream directly (no-op for prefetchers
	// without stream state).
	TriggerStream(a cache.BlockAddr, stride int64) []cache.BlockAddr
	// SetCap installs an adaptive issue bound (nil = unlimited).
	SetCap(cap func() int)
	// StreamStride reports the dominant detected stride (0 if none).
	StreamStride() int64
	// Allocations reports stream/window allocations for statistics.
	Allocations() uint64
	// CheckInvariants returns a description of the first internal-state
	// inconsistency, or "" when sound (audit support).
	CheckInvariants() string
}

// Allocations implements Prefetcher for the stride engine.
func (e *Engine) Allocations() uint64 { return e.Stats.StreamAllocs }

// Sequential is a tagged sequential prefetcher of degree N (Smith's
// scheme): every miss to block a prefetches a+1..a+N, and an access to
// the most recently prefetched window extends the run by one block, so
// a sequential run keeps going without further misses. It has no filter
// or stream tables and catches only unit-stride locality — the baseline
// the stride engine is measured against.
type Sequential struct {
	degree int
	cap    func() int
	reqbuf []cache.BlockAddr
	// The most recently prefetched window; an access inside it extends
	// the run without per-line state in the prefetcher.
	windowStart, windowEnd cache.BlockAddr
	windowValid            bool

	Stats Stats
}

// newSequential builds the baseline for a level: degree a third of the
// stride engine's startup depth, for comparable aggressiveness.
func newSequential(c Config) Prefetcher {
	return &Sequential{degree: max(c.StartupDepth/3, 1)}
}

// SetCap installs the adaptive bound.
func (s *Sequential) SetCap(cap func() int) { s.cap = cap }

// OnMiss prefetches the next degree sequential blocks.
func (s *Sequential) OnMiss(a cache.BlockAddr) []cache.BlockAddr {
	s.reqbuf = s.reqbuf[:0]
	d := capped(s.degree, s.cap)
	for k := 1; k <= d; k++ {
		s.reqbuf = append(s.reqbuf, a+cache.BlockAddr(k))
	}
	if d > 0 {
		s.windowStart, s.windowEnd = a+1, a+cache.BlockAddr(d)
		s.windowValid = true
		s.Stats.Issued += uint64(d)
		s.Stats.StreamAllocs++
	}
	return s.reqbuf
}

// OnAccess extends the current run when the demand stream reaches the
// prefetched window.
func (s *Sequential) OnAccess(a cache.BlockAddr) []cache.BlockAddr {
	s.reqbuf = s.reqbuf[:0]
	if !s.windowValid || capped(s.degree, s.cap) == 0 {
		return s.reqbuf
	}
	if a >= s.windowStart && a <= s.windowEnd {
		next := s.windowEnd + 1
		s.reqbuf = append(s.reqbuf, next)
		s.windowEnd = next
		s.Stats.Issued++
		s.Stats.Advances++
	}
	return s.reqbuf
}

// TriggerStream is a no-op: the sequential scheme has no stream table.
func (s *Sequential) TriggerStream(a cache.BlockAddr, stride int64) []cache.BlockAddr {
	s.reqbuf = s.reqbuf[:0]
	return s.reqbuf
}

// StreamStride is always +1 once a window is live.
func (s *Sequential) StreamStride() int64 {
	if s.windowValid {
		return 1
	}
	return 0
}

// Allocations reports miss-triggered windows.
func (s *Sequential) Allocations() uint64 { return s.Stats.StreamAllocs }
