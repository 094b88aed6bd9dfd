package prefetch

import (
	"fmt"

	"cmpsim/internal/cache"
)

// markovNone marks an empty tag or successor slot.
const markovNone = ^cache.BlockAddr(0)

// markovSuccessors is the number of successor addresses kept per
// entry, MRU-ordered: the classic two, all of them candidates on a hit.
const markovSuccessors = 2

// Markov is a Joseph/Grunwald-style miss-correlation prefetcher: the
// table maps a miss address to the addresses that followed it in the
// miss stream, and a hit replays the recorded successors. It is the
// only kind here that can cover data-dependent pointer chases — the
// successor of a node is arbitrary, but it repeats across traversals.
type Markov struct {
	mask uint64
	tags []cache.BlockAddr
	succ []cache.BlockAddr // markovSuccessors per entry, MRU first

	prev      cache.BlockAddr
	prevValid bool
	cap       func() int
	reqbuf    []cache.BlockAddr

	Stats Stats
}

// newMarkov builds a level's correlation table: the stride engine's
// filter-table budget scaled up 64-fold (the correlation table is the
// scheme's main cost), rounded up to a power of two.
func newMarkov(c Config) Prefetcher {
	n := 1
	for n < c.FilterEntries*64 {
		n <<= 1
	}
	m := &Markov{
		mask:   uint64(n - 1),
		tags:   make([]cache.BlockAddr, n),
		succ:   make([]cache.BlockAddr, n*markovSuccessors),
		reqbuf: make([]cache.BlockAddr, 0, markovSuccessors),
	}
	for i := range m.tags {
		m.tags[i] = markovNone
	}
	for i := range m.succ {
		m.succ[i] = markovNone
	}
	return m
}

func (m *Markov) index(a cache.BlockAddr) int {
	return int((uint64(a) * 0x9E3779B97F4A7C15 >> 17) & m.mask)
}

// SetCap installs the adaptive issue bound.
func (m *Markov) SetCap(cap func() int) { m.cap = cap }

// row returns entry e's successor slots.
func (m *Markov) row(e int) []cache.BlockAddr {
	return m.succ[e*markovSuccessors : (e+1)*markovSuccessors]
}

// train records prev -> a in prev's entry, MRU first.
func (m *Markov) train(prev, a cache.BlockAddr) {
	e := m.index(prev)
	row := m.row(e)
	if m.tags[e] != prev {
		m.tags[e] = prev
		for i := range row {
			row[i] = markovNone
		}
		m.Stats.StreamAllocs++
	}
	if row[0] == a {
		return
	}
	// Promote a to MRU, shifting the rest down (dropping a's old slot
	// if present so successors stay distinct).
	last := a
	for i := range row {
		row[i], last = last, row[i]
		if last == a || last == markovNone {
			break
		}
	}
}

// OnMiss trains the prev->a transition and replays a's recorded
// successors. Training continues under a zero cap so the table is warm
// when the adaptive controller reopens the bound.
func (m *Markov) OnMiss(a cache.BlockAddr) []cache.BlockAddr {
	m.reqbuf = m.reqbuf[:0]
	if m.prevValid {
		m.train(m.prev, a)
	}
	m.prev, m.prevValid = a, true
	e := m.index(a)
	if m.tags[e] != a {
		return m.reqbuf
	}
	m.Stats.FilterHits++
	d := capped(markovSuccessors, m.cap)
	row := m.row(e)
	for i := 0; i < len(row) && len(m.reqbuf) < d; i++ {
		if row[i] == markovNone {
			break
		}
		if row[i] != a {
			m.reqbuf = append(m.reqbuf, row[i])
		}
	}
	m.Stats.Issued += uint64(len(m.reqbuf))
	return m.reqbuf
}

// OnAccess is a no-op: the scheme correlates the miss stream only.
func (m *Markov) OnAccess(a cache.BlockAddr) []cache.BlockAddr {
	m.reqbuf = m.reqbuf[:0]
	return m.reqbuf
}

// TriggerStream is a no-op: there is no stream state to seed.
func (m *Markov) TriggerStream(a cache.BlockAddr, stride int64) []cache.BlockAddr {
	m.reqbuf = m.reqbuf[:0]
	return m.reqbuf
}

// StreamStride is always 0: correlated prefetches have no stride.
func (m *Markov) StreamStride() int64 { return 0 }

// Allocations reports correlation-entry installs.
func (m *Markov) Allocations() uint64 { return m.Stats.StreamAllocs }

// CheckInvariants verifies table shape: empty entries have no
// successors, live rows are MRU-compact and distinct.
func (m *Markov) CheckInvariants() string {
	for e := range m.tags {
		row := m.row(e)
		if m.tags[e] == markovNone {
			for i := range row {
				if row[i] != markovNone {
					return fmt.Sprintf("markov entry %d empty but successor %d set", e, i)
				}
			}
			continue
		}
		seen := false
		for i := len(row) - 1; i >= 0; i-- {
			if row[i] != markovNone {
				seen = true
			} else if seen {
				return fmt.Sprintf("markov entry %d successors not MRU-compact", e)
			}
		}
		for i := range row {
			if row[i] == markovNone {
				continue
			}
			for j := i + 1; j < len(row); j++ {
				if row[j] == row[i] {
					return fmt.Sprintf("markov entry %d duplicate successor %d", e, uint64(row[i]))
				}
			}
		}
	}
	return ""
}

// CorruptStream deliberately breaks the table shape (audit fault
// injection).
func (m *Markov) CorruptStream() {
	row := m.row(0)
	m.tags[0] = 1
	row[0] = markovNone
	row[len(row)-1] = 2
}
