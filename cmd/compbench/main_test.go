package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cmpsim/internal/codec"
)

// corruptCodec is FPC with a decoder that reports success but flips
// one bit of the decoded line.
type corruptCodec struct{ codec.FPC }

func (c corruptCodec) DecodeInto(dst, enc []byte, segs int) error {
	if err := c.FPC.DecodeInto(dst, enc, segs); err != nil {
		return err
	}
	dst[codec.LineSize-1] ^= 1
	return nil
}

func TestBenchRejectsWrongDecode(t *testing.T) {
	cp := syntheticCorpus("zeus", 16, 1)
	if _, err := bench(corruptCodec{}, cp); err == nil {
		t.Fatal("bench accepted a codec whose decoded lines differ from the input")
	}
}

func TestBenchRegistryRoundTrips(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corpus.bin")
	if err := os.WriteFile(path, bytes.Repeat([]byte{0, 0, 0, 7, 0xAB}, 30), 0o644); err != nil {
		t.Fatal(err)
	}
	file, err := fileCorpus(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(file.lines) != 3 {
		t.Fatalf("150-byte file chunked into %d lines, want 3", len(file.lines))
	}
	for _, cp := range []corpus{syntheticCorpus("jbb", 256, 1), file} {
		for _, cdc := range codec.All() {
			r, err := bench(cdc, cp)
			if err != nil {
				t.Fatalf("%s/%s: %v", cdc.Name(), cp.name, err)
			}
			if r.ratio < 1 || r.ratio > codec.MaxSegments {
				t.Errorf("%s/%s: ratio %.2f outside [1, %d]", cdc.Name(), cp.name, r.ratio, codec.MaxSegments)
			}
		}
	}
}

func TestPatternTableNamesFPCPatterns(t *testing.T) {
	var out bytes.Buffer
	printPatterns(&out, []corpus{syntheticCorpus("apache", 8, 1)})
	for p := codec.FPCPattern(0); p < 8; p++ {
		if !strings.Contains(out.String(), p.String()) {
			t.Errorf("pattern table lacks %q:\n%s", p, out.String())
		}
	}
	if !strings.Contains(out.String(), "apache") {
		t.Errorf("pattern table lacks the corpus name:\n%s", out.String())
	}
}
