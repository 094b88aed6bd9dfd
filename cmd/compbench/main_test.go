package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"cmpsim/internal/codec"
)

// TestMain lets the test binary impersonate the compbench command: with
// CMPSIM_MAIN=1 it runs main() instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("CMPSIM_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestBadArgumentsExitCodes: a bad flag or flag value is a usage error
// (exit 2 with the usage text, before any benching), while an -f file
// that is missing or empty is an input error (exit 1).
func TestBadArgumentsExitCodes(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.bin")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		code int
		want string // stderr must contain this
	}{
		{[]string{"-lines", "0"}, 2, "-lines 0 must be positive"},
		{[]string{"-lines", "-3"}, 2, "-lines -3 must be positive"},
		{[]string{"-nosuch"}, 2, "nosuch"},
		{[]string{"-f", filepath.Join(dir, "missing.bin")}, 1, "missing.bin"},
		{[]string{"-f", empty}, 1, "empty input"},
	} {
		cmd := exec.Command(exe, tc.args...)
		cmd.Env = append(os.Environ(), "CMPSIM_MAIN=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		code := 0
		if err := cmd.Run(); err != nil {
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("%v: %v", tc.args, err)
			}
			code = ee.ExitCode()
		}
		if code != tc.code {
			t.Errorf("%v: exit = %d, want %d; stderr:\n%s", tc.args, code, tc.code, stderr.String())
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: stderr lacks %q:\n%s", tc.args, tc.want, stderr.String())
		}
		if usage := strings.Contains(stderr.String(), "Usage"); usage != (tc.code == 2) {
			t.Errorf("%v: usage text printed = %v, want %v", tc.args, usage, tc.code == 2)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: benched despite the error:\n%s", tc.args, stdout.String())
		}
	}
}

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
