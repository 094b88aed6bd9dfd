package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the test binary impersonate the experiments command:
// with CMPSIM_EXPERIMENTS_MAIN=1 it runs main() instead of the tests.
// Subprocesses below set that variable — and spawned pipe workers
// inherit it, so spawnFleet's self-re-exec works under test too.
func TestMain(m *testing.M) {
	if os.Getenv("CMPSIM_EXPERIMENTS_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// tinyGrid is a sweep small enough for subprocess tests (two
// benchmarks, two mechanisms each under -quick, sub-second).
var tinyGrid = []string{
	"-run", "table3", "-benchmarks", "zeus,art", "-quick",
	"-cores", "2", "-warmup", "50000", "-measure", "30000", "-seeds", "1",
}

// experiments runs the test binary as the experiments command.
func experiments(t *testing.T, env []string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "CMPSIM_EXPERIMENTS_MAIN=1")
	cmd.Env = append(cmd.Env, env...)
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	switch err := cmd.Run().(type) {
	case nil:
		code = 0
	case *exec.ExitError:
		code = err.ExitCode()
	default:
		t.Fatalf("run experiments: %v", err)
	}
	return out.String(), errb.String(), code
}

func TestInvalidCheckLevelExitsTwo(t *testing.T) {
	_, stderr, code := experiments(t, nil, append([]string{"-check", "bogus"}, tinyGrid...)...)
	if code != 2 {
		t.Fatalf("exit = %d, want 2; stderr:\n%s", code, stderr)
	}
	if strings.Contains(stderr, "done in") {
		t.Fatalf("simulation ran despite invalid -check:\n%s", stderr)
	}
}

// TestFlagErrorsExitTwo: every flag error run() detects is a usage
// error, reported with exit 2 before anything simulates. That includes
// -format csv on a study with no CSV form, which must not fall back to
// printing its text table.
func TestFlagErrorsExitTwo(t *testing.T) {
	grid := []string{"-benchmarks", "zeus", "-quick", "-cores", "2",
		"-warmup", "50000", "-measure", "30000", "-seeds", "1"}
	for _, tc := range []struct {
		name string
		args []string
		want string // stderr must contain this
	}{
		{"csv without a CSV form", []string{"-run", "fig4,ablations", "-format", "csv"}, "no CSV form for fig4, ablations (use -format json)"},
		{"csv on two studies", []string{"-run", "table3,fig8,fig10", "-format", "csv"}, "no CSV form for fig8, fig10"},
		{"unknown study", []string{"-run", "nosuch"}, `unknown experiment "nosuch"`},
		{"unknown format", []string{"-run", "table3", "-format", "xml"}, `unknown -format "xml"`},
		{"negative seeds", []string{"-run", "table3", "-seeds", "-1"}, "-seeds -1"},
		{"negative workers", []string{"-run", "table3", "-workers", "-1"}, "-workers -1"},
		{"negative cores", []string{"-run", "table3", "-cores", "-1"}, "-cores -1 out of range"},
		{"cores beyond the sharer mask", []string{"-run", "table3", "-cores", "33"}, "-cores 33 out of range"},
		{"negative point timeout", []string{"-run", "table3", "-point-timeout", "-1s"}, "-point-timeout"},
		{"bad fault spec", []string{"-run", "table3", "-faultinject", "kind=nosuch"}, "nosuch"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Later flags win, so the case's own -seeds overrides grid's.
			_, stderr, code := experiments(t, nil, append(append([]string{}, grid...), tc.args...)...)
			if code != 2 {
				t.Fatalf("exit = %d, want 2; stderr:\n%s", code, stderr)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Errorf("stderr lacks %q:\n%s", tc.want, stderr)
			}
			if strings.Contains(stderr, "done in") {
				t.Errorf("simulation ran despite the flag error:\n%s", stderr)
			}
		})
	}
}

// TestStudiesShareOneScheduler: table3, fig3 and fig5 read the same
// compression-study points, so on the suite's one scheduler fig3 and
// fig5 simulate nothing and are served entirely from its cache.
func TestStudiesShareOneScheduler(t *testing.T) {
	_, stderr, code := experiments(t, nil,
		"-run", "table3,fig3,fig5", "-benchmarks", "zeus,art", "-quick",
		"-cores", "2", "-warmup", "50000", "-measure", "30000", "-seeds", "1")
	if code != 0 {
		t.Fatalf("exit = %d; stderr:\n%s", code, stderr)
	}
	for _, study := range []string{"fig3", "fig5"} {
		line := studyLine(stderr, study)
		if !strings.Contains(line, " 0 points simulated") || !strings.Contains(line, "8 served from cache") {
			t.Errorf("%s did not reuse table3's points: %q", study, line)
		}
	}
	if !strings.Contains(stderr, "8 unique points, 16 cached requests") {
		t.Errorf("suite totals wrong; stderr:\n%s", stderr)
	}
}

// studyLine returns the stderr line that reports study's point counts.
func studyLine(stderr, study string) string {
	for _, l := range strings.Split(stderr, "\n") {
		if strings.HasPrefix(l, "["+study+" done in ") {
			return l
		}
	}
	return ""
}

// TestAblationsStudy: the ablations study prints all six ablations from
// 14 unique points, 3 Base points and 11 variants. Its paper-setting
// variants are the suite's own points, so after fig6 over the same
// benchmarks it simulates only the six overrides and jbb's Compression
// point.
func TestAblationsStudy(t *testing.T) {
	grid := []string{"-quick", "-cores", "2", "-warmup", "50000", "-measure", "30000", "-seeds", "1"}
	stdout, stderr, code := experiments(t, nil, append([]string{"-run", "ablations"}, grid...)...)
	if code != 0 {
		t.Fatalf("exit = %d; stderr:\n%s", code, stderr)
	}
	for _, a := range []string{"victim-tags", "l2-depth", "decompression", "l2-tags", "engine", "adaptive"} {
		if !strings.Contains(stdout, "  "+a+" ") {
			t.Errorf("ablation %s missing:\n%s", a, stdout)
		}
	}
	if line := studyLine(stderr, "ablations"); !strings.Contains(line, ": 14 points simulated") {
		t.Errorf("ablations on a fresh scheduler: %q, want 14 points simulated", line)
	}

	_, stderr, code = experiments(t, nil, append([]string{
		"-run", "fig6,ablations", "-benchmarks", "zeus,jbb,mgrid"}, grid...)...)
	if code != 0 {
		t.Fatalf("exit = %d; stderr:\n%s", code, stderr)
	}
	if line := studyLine(stderr, "ablations"); !strings.Contains(line, ": 7 points simulated") {
		t.Errorf("ablations after fig6: %q, want 7 points simulated", line)
	}
}

// TestRetriesFlagExitsTwo: seed jobs are never retried (sim.Run is
// deterministic), so -retries is an unknown flag, a usage error.
func TestRetriesFlagExitsTwo(t *testing.T) {
	_, stderr, code := experiments(t, nil, append([]string{"-retries", "1"}, tinyGrid...)...)
	if code != 2 {
		t.Fatalf("exit = %d, want 2; stderr:\n%s", code, stderr)
	}
	if strings.Contains(stderr, "done in") {
		t.Fatalf("simulation ran despite the unknown flag:\n%s", stderr)
	}
}

func TestWorkerInvalidCheckEnvExitsTwoBeforeAnyLease(t *testing.T) {
	// The env-var path is validated inside worker mode itself, before
	// the worker says hello to any coordinator (stdin is empty here, so
	// asking for a lease would hang or error, not exit 2).
	_, stderr, code := experiments(t, []string{"CMPSIM_CHECK=bogus"}, "-worker", "pipe")
	if code != 2 {
		t.Fatalf("exit = %d, want 2; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "CMPSIM_CHECK") {
		t.Fatalf("stderr does not name the bad variable:\n%s", stderr)
	}
}

func TestWorkerRejectsStoreFlag(t *testing.T) {
	_, stderr, code := experiments(t, nil, "-worker", "pipe", "-store", t.TempDir())
	if code != 2 || !strings.Contains(stderr, "coordinator") {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
}

// TestFleetKillOneWorkerBitIdenticalOutput is the command-level
// acceptance run: a 2-worker pipe fleet with worker w1 deterministically
// killed before its first result must print byte-identical tables to a
// plain single-process run, and exit 0.
func TestFleetKillOneWorkerBitIdenticalOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess simulation; skipped with -short")
	}
	want, _, code := experiments(t, nil, tinyGrid...)
	if code != 0 {
		t.Fatalf("single-process run exited %d", code)
	}
	got, stderr, code := experiments(t, nil, append([]string{
		"-fleet", "2", "-faultinject", "kind=kill,worker=w1,msg=result,nth=1",
	}, tinyGrid...)...)
	if code != 0 {
		t.Fatalf("fleet run exited %d; stderr:\n%s", code, stderr)
	}
	if got != want {
		t.Errorf("fleet output differs from single-process output:\n--- single\n%s\n--- fleet\n%s", want, got)
	}
	for _, needle := range []string{"LOST", "requeue"} {
		if !strings.Contains(stderr, needle) {
			t.Errorf("fleet stats missing %q:\n%s", needle, stderr)
		}
	}
}

// TestStoreReuseAcrossRuns pins the shared-store contract: a second run
// over the same grid simulates nothing and prints identical tables.
func TestStoreReuseAcrossRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess simulation; skipped with -short")
	}
	dir := t.TempDir()
	args := append([]string{"-store", dir}, tinyGrid...)
	first, stderr1, code := experiments(t, nil, args...)
	if code != 0 {
		t.Fatalf("first run exited %d; stderr:\n%s", code, stderr1)
	}
	if !strings.Contains(stderr1, "0 points loaded") {
		t.Errorf("first run should start from an empty store:\n%s", stderr1)
	}
	second, stderr2, code := experiments(t, nil, args...)
	if code != 0 {
		t.Fatalf("second run exited %d; stderr:\n%s", code, stderr2)
	}
	if second != first {
		t.Errorf("second run's tables differ:\n--- first\n%s\n--- second\n%s", first, second)
	}
	if !strings.Contains(stderr2, "0 unique points") {
		t.Errorf("second run simulated points despite the store:\n%s", stderr2)
	}
}
