package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the test binary impersonate the cmpsim command: with
// CMPSIM_MAIN=1 it runs main() instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("CMPSIM_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// cmpsim runs the test binary as the cmpsim command.
func cmpsim(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "CMPSIM_MAIN=1")
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	switch err := cmd.Run().(type) {
	case nil:
	case *exec.ExitError:
		code = err.ExitCode()
	default:
		t.Fatalf("run cmpsim: %v", err)
	}
	return out.String(), errb.String(), code
}

// TestPfKindFlagExitsTwo: -prefetcher is the only engine flag; the old
// -pf-kind alias is an unknown flag and must not start a simulation.
func TestPfKindFlagExitsTwo(t *testing.T) {
	stdout, stderr, code := cmpsim(t, "-pf-kind", "markov", "-cores", "1", "-warmup", "0", "-instr", "1000")
	if code != 2 {
		t.Fatalf("exit = %d, want 2; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "pf-kind") {
		t.Fatalf("stderr does not name the unknown flag:\n%s", stderr)
	}
	if stdout != "" {
		t.Fatalf("simulation ran despite the unknown flag:\n%s", stdout)
	}
}

// TestPrefetcherFlagSelectsEngine is the positive control: the same
// tiny run under -prefetcher succeeds.
func TestPrefetcherFlagSelectsEngine(t *testing.T) {
	stdout, stderr, code := cmpsim(t, "-prefetcher", "markov", "-prefetch", "-cores", "1", "-warmup", "0", "-instr", "1000")
	if code != 0 {
		t.Fatalf("exit = %d; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "benchmark      zeus") {
		t.Fatalf("unexpected output:\n%s", stdout)
	}
}

// TestBadCacheGeometryExitsTwo: an -l2mb that gives no power-of-two set
// count is refused with the reason and exit 2, before any simulation
// and without a panic, with or without compression.
func TestBadCacheGeometryExitsTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-l2mb", "3", "-compress"},
		{"-l2mb", "3"},
	} {
		stdout, stderr, code := cmpsim(t, append(args, "-cores", "1", "-warmup", "0", "-instr", "1000")...)
		if code != 2 {
			t.Fatalf("%v: exit = %d, want 2; stderr:\n%s", args, code, stderr)
		}
		if !strings.Contains(stderr, "power of two") || strings.Contains(stderr, "goroutine") {
			t.Fatalf("%v: stderr does not state the geometry error cleanly:\n%s", args, stderr)
		}
		if stdout != "" {
			t.Fatalf("%v: simulation ran:\n%s", args, stdout)
		}
	}
}

// TestBadFlagValuesExitTwo: every out-of-range or unknown flag value is
// a usage error — exit 2 with the usage text, before any simulation —
// while an I/O error such as an unwritable -cpuprofile path exits 1.
func TestBadFlagValuesExitTwo(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-codec", "nope"}, "-codec"},
		{[]string{"-cores", "0"}, "-cores 0"},
		{[]string{"-instr", "0"}, "-instr"},
		{[]string{"-bw", "-1"}, "-bw -1"},
		{[]string{"-l2mb", "0"}, "-l2mb 0"},
		{[]string{"-l1depth", "-1"}, "-l1depth"},
		{[]string{"-check", "bogus"}, "-check"},
	} {
		args := append([]string{"-warmup", "0"}, tc.args...)
		if tc.args[0] != "-cores" {
			args = append(args, "-cores", "1")
		}
		if tc.args[0] != "-instr" {
			args = append(args, "-instr", "1000")
		}
		stdout, stderr, code := cmpsim(t, args...)
		if code != 2 {
			t.Errorf("%v: exit = %d, want 2; stderr:\n%s", tc.args, code, stderr)
		}
		if !strings.Contains(stderr, tc.want) || !strings.Contains(stderr, "Usage") {
			t.Errorf("%v: stderr does not name %q with the usage text:\n%s", tc.args, tc.want, stderr)
		}
		if stdout != "" {
			t.Errorf("%v: simulation ran:\n%s", tc.args, stdout)
		}
	}

	missing := t.TempDir() + "/missing/cpu.pprof"
	_, stderr, code := cmpsim(t, "-cpuprofile", missing, "-cores", "1", "-warmup", "0", "-instr", "1000")
	if code != 1 {
		t.Fatalf("unwritable -cpuprofile: exit = %d, want 1; stderr:\n%s", code, stderr)
	}
}
