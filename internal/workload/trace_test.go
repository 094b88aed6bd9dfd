package workload

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"testing/quick"

	"cmpsim/internal/cache"
	"cmpsim/internal/coherence"
)

func TestTraceRoundTrip(t *testing.T) {
	p := MustByName("zeus")
	var buf bytes.Buffer
	const n = 5000
	if err := RecordSource(&buf, "", p, 0, 7, n); err != nil {
		t.Fatal(err)
	}
	tr, err := NewTraceReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Benchmark != "zeus" {
		t.Fatalf("benchmark = %q", tr.Benchmark)
	}
	// Replay must equal the generator's output exactly.
	g := NewGenerator(p, 0, 7)
	var want, got Ref
	for i := 0; i < n; i++ {
		g.Next(&want)
		if err := tr.Next(&got); err != nil {
			t.Fatalf("ref %d: %v", i, err)
		}
		if want != got {
			t.Fatalf("ref %d: got %+v want %+v", i, got, want)
		}
	}
	if err := tr.Next(&got); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestTraceCompactness(t *testing.T) {
	p := MustByName("mgrid") // strided: deltas tiny
	var buf bytes.Buffer
	const n = 10000
	if err := RecordSource(&buf, "", p, 0, 1, n); err != nil {
		t.Fatal(err)
	}
	perRef := float64(buf.Len()) / n
	if perRef > 8 {
		t.Fatalf("trace costs %.1f bytes/ref; expected compact encoding", perRef)
	}
}

func TestTraceRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"XXXX",
		"CMPT\x09\x04zeus", // bad version
	}
	for i, c := range cases {
		if _, err := NewTraceReader(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	// Truncated record after a valid header.
	var buf bytes.Buffer
	tw, err := NewTraceWriter(&buf, "x")
	if err != nil {
		t.Fatal(err)
	}
	tw.Write(Ref{Gap: 3, Kind: coherence.Load, Addr: 100})
	tw.Flush()
	trunc := buf.Bytes()[:buf.Len()-1]
	tr, err := NewTraceReader(bytes.NewReader(trunc))
	if err != nil {
		t.Fatal(err)
	}
	var r Ref
	if err := tr.Next(&r); err == nil {
		t.Error("truncated record accepted")
	}
}

func TestTraceLongBenchmarkName(t *testing.T) {
	if _, err := NewTraceWriter(io.Discard, strings.Repeat("x", 300)); err == nil {
		t.Fatal("overlong name accepted")
	}
}

func TestZigZagProperty(t *testing.T) {
	f := func(v int64) bool { return unzigzag(zigzag(v)) == v }
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestTraceArbitraryRefsProperty(t *testing.T) {
	f := func(gaps []uint16, addrs []uint32, kinds []uint8) bool {
		n := len(gaps)
		if len(addrs) < n {
			n = len(addrs)
		}
		if len(kinds) < n {
			n = len(kinds)
		}
		var refs []Ref
		for i := 0; i < n; i++ {
			refs = append(refs, Ref{
				Gap:      uint32(gaps[i]),
				Kind:     coherence.Kind(kinds[i] % 3),
				Addr:     cache.BlockAddr(addrs[i]),
				Blocking: kinds[i]&8 != 0,
			})
		}
		var buf bytes.Buffer
		tw, err := NewTraceWriter(&buf, "prop")
		if err != nil {
			return false
		}
		for _, r := range refs {
			if tw.Write(r) != nil {
				return false
			}
		}
		tw.Flush()
		tr, err := NewTraceReader(&buf)
		if err != nil {
			return false
		}
		var got Ref
		for _, want := range refs {
			if tr.Next(&got) != nil || got != want {
				return false
			}
		}
		var r Ref
		return tr.Next(&r) == io.EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
