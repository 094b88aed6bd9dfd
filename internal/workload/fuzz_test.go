package workload

import (
	"bytes"
	"io"
	"testing"

	"cmpsim/internal/cache"
	"cmpsim/internal/coherence"
)

// kindOf folds an arbitrary byte into a valid reference kind.
func kindOf(k uint8) coherence.Kind { return coherence.Kind(k % 3) }

func blockAddr(a uint64) cache.BlockAddr { return cache.BlockAddr(a) }

// FuzzTraceReader feeds arbitrary byte streams to the trace parser: it
// must reject garbage with ErrTraceFormat-wrapped errors (or end with
// io.EOF), never panic, and never loop forever.
func FuzzTraceReader(f *testing.F) {
	// Seed corpus: a genuine recorded trace, a truncated one, corrupted
	// magic/version, and a bare header.
	p, err := ByName("zeus")
	if err != nil {
		f.Fatal(err)
	}
	var valid bytes.Buffer
	if err := RecordSource(&valid, "", p, 0, 1, 200); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()/2])
	f.Add(valid.Bytes()[:7])
	bad := append([]byte{}, valid.Bytes()...)
	bad[0] = 'X'
	f.Add(bad)
	ver := append([]byte{}, valid.Bytes()...)
	ver[4] = 0xEE
	f.Add(ver)
	f.Add([]byte("CMPT\x01\x04zeus"))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := NewTraceReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		var r Ref
		// A reader can produce at most one record per input byte, so this
		// bound only guards against a non-advancing parser loop.
		for i := 0; i <= len(data); i++ {
			if err := tr.Next(&r); err != nil {
				// Malformed mid-stream errors are expected; nothing to
				// assert beyond "no panic".
				return
			}
		}
		t.Fatalf("parser produced more records than input bytes (%d)", len(data))
	})
}

// FuzzTraceRoundTrip writes fuzzer-chosen references and replays them:
// the decoded stream must match what was written.
func FuzzTraceRoundTrip(f *testing.F) {
	f.Add(uint32(3), uint8(0), true, uint64(0x1000), uint64(0x1040))
	f.Add(uint32(0), uint8(2), false, uint64(1<<40), uint64(0))

	f.Fuzz(func(t *testing.T, gap uint32, kind uint8, blocking bool, a1, a2 uint64) {
		refs := []Ref{
			{Gap: gap, Kind: kindOf(kind), Blocking: blocking, Addr: blockAddr(a1)},
			{Gap: gap / 2, Kind: kindOf(kind + 1), Blocking: !blocking, Addr: blockAddr(a2)},
		}
		var buf bytes.Buffer
		tw, err := NewTraceWriter(&buf, "fuzz")
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range refs {
			if err := tw.Write(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := tw.Flush(); err != nil {
			t.Fatal(err)
		}
		tr, err := NewTraceReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range refs {
			var got Ref
			if err := tr.Next(&got); err != nil {
				t.Fatalf("record %d: %v", i, err)
			}
			if got != want {
				t.Fatalf("record %d: got %+v, want %+v", i, got, want)
			}
		}
		if err := tr.Next(&Ref{}); err != io.EOF {
			t.Fatalf("trailing read: %v, want EOF", err)
		}
	})
}
