package prefetch

import (
	"fmt"

	"cmpsim/internal/cache"
)

// streamBuf is one buffer: a unit-stride window [next, tail] of blocks
// prefetched ahead of the demand stream. next is the address the
// demand stream is expected to ask for; tail is the last block issued.
type streamBuf struct {
	valid bool
	next  cache.BlockAddr
	tail  cache.BlockAddr
	used  uint64 // LRU timestamp
}

// StreamBuffers is a Jouppi-style prefetcher: on a miss that no buffer
// covers, the LRU buffer restarts as a unit-stride window after the
// miss; demand hits at a buffer head advance the window by one. Unlike
// the stride Engine it needs no training misses — but it only covers
// ascending unit-stride runs, which is exactly what the irregular
// suite withholds.
type StreamBuffers struct {
	lookahead int // blocks each buffer keeps ahead of the demand stream
	bufs      []streamBuf
	tick      uint64
	cap       func() int
	reqbuf    []cache.BlockAddr

	Stats Stats
}

// newStreamBuffers builds a level's buffer set: half the stride
// engine's stream-table entries as buffers, its startup depth as
// lookahead.
func newStreamBuffers(c Config) Prefetcher {
	return &StreamBuffers{
		lookahead: c.StartupDepth,
		bufs:      make([]streamBuf, max(c.StreamEntries/2, 1)),
		reqbuf:    make([]cache.BlockAddr, 0, c.StartupDepth),
	}
}

// SetCap installs the adaptive issue bound.
func (s *StreamBuffers) SetCap(cap func() int) { s.cap = cap }

// consume advances the buffer whose head matches a, issuing one block
// to keep the window at depth. Reports whether a matched.
func (s *StreamBuffers) consume(a cache.BlockAddr) bool {
	for i := range s.bufs {
		b := &s.bufs[i]
		if !b.valid || b.next != a {
			continue
		}
		b.next++
		b.used = s.tick
		s.Stats.Advances++
		if d := capped(s.lookahead, s.cap); d > 0 && int64(b.tail)-int64(b.next)+1 < int64(d) {
			b.tail++
			s.reqbuf = append(s.reqbuf, b.tail)
			s.Stats.Issued++
		}
		if b.next > b.tail+1 {
			b.valid = false // drained with nothing in flight
		}
		return true
	}
	return false
}

// alloc restarts the LRU buffer as a window after a.
func (s *StreamBuffers) alloc(a cache.BlockAddr) {
	d := capped(s.lookahead, s.cap)
	if d == 0 {
		return
	}
	victim := 0
	for i := range s.bufs {
		if !s.bufs[i].valid {
			victim = i
			break
		}
		if s.bufs[i].used < s.bufs[victim].used {
			victim = i
		}
	}
	b := &s.bufs[victim]
	*b = streamBuf{valid: true, next: a + 1, tail: a + cache.BlockAddr(d), used: s.tick}
	for k := 1; k <= d; k++ {
		s.reqbuf = append(s.reqbuf, a+cache.BlockAddr(k))
	}
	s.Stats.StreamAllocs++
	s.Stats.Issued += uint64(d)
}

// OnAccess advances a matching buffer head (hit on a landed prefetch).
func (s *StreamBuffers) OnAccess(a cache.BlockAddr) []cache.BlockAddr {
	s.tick++
	s.reqbuf = s.reqbuf[:0]
	s.consume(a)
	return s.reqbuf
}

// OnMiss advances a matching buffer (prefetch issued but not landed)
// or restarts the LRU buffer after the miss.
func (s *StreamBuffers) OnMiss(a cache.BlockAddr) []cache.BlockAddr {
	s.tick++
	s.reqbuf = s.reqbuf[:0]
	if !s.consume(a) {
		s.alloc(a)
	}
	return s.reqbuf
}

// TriggerStream allocates a buffer for an externally detected
// unit-stride run; other strides do not fit an ascending buffer.
func (s *StreamBuffers) TriggerStream(a cache.BlockAddr, stride int64) []cache.BlockAddr {
	s.tick++
	s.reqbuf = s.reqbuf[:0]
	if stride != 1 {
		return s.reqbuf
	}
	for i := range s.bufs {
		if s.bufs[i].valid && s.bufs[i].next == a+1 {
			return s.reqbuf // already covering this run
		}
	}
	s.alloc(a)
	return s.reqbuf
}

// StreamStride is +1 once any buffer is live (buffers are ascending
// unit-stride by construction).
func (s *StreamBuffers) StreamStride() int64 {
	for i := range s.bufs {
		if s.bufs[i].valid {
			return 1
		}
	}
	return 0
}

// Allocations reports buffer (re)starts.
func (s *StreamBuffers) Allocations() uint64 { return s.Stats.StreamAllocs }

// CheckInvariants verifies every live window is well-formed.
func (s *StreamBuffers) CheckInvariants() string {
	for i := range s.bufs {
		b := &s.bufs[i]
		if !b.valid {
			continue
		}
		w := int64(b.tail) - int64(b.next) + 1
		if w < 0 || w > int64(s.lookahead) {
			return fmt.Sprintf("stream buffer %d window [%d,%d] width %d outside [0,%d]",
				i, b.next, b.tail, w, s.lookahead)
		}
	}
	return ""
}

// CorruptStream deliberately breaks a window (audit fault injection).
func (s *StreamBuffers) CorruptStream() {
	s.bufs[0] = streamBuf{valid: true, next: 1000, tail: 10, used: s.tick}
}
