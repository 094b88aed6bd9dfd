// Command cmpbench is cmpsim's performance benchmark: four closed-loop
// workloads (two serial simulations, a scheduler sweep and a fleet with
// a durable store) measured end to end, plus a traced run that times
// each internal module by record and replay. See README.md.
//
// Run it from the repository root:
//
//	bash bench/run.sh --workload zeus-pfcompr --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --workload all --seed 1
//	bash bench/run.sh -compare parent.jsonl change.jsonl
//	bash bench/run.sh -update      # re-pin bench/testdata/digests.json
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// scratchDir holds stores the workloads create (removed as they finish)
// and the default span files, under the build directory the checkout
// ignores.
const scratchDir = ".bench_build"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, time.Now())) }

func run(args []string, stdout, stderr io.Writer, start time.Time) int {
	fs := flag.NewFlagSet("cmpbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or all (one fresh process each)")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 15, "how long the timed phase runs")
	traceFlag := fs.Int("trace", 0, "1: per-layer run (half untraced, half traced, then layer replay)")
	spans := fs.String("spans", "", "span file of a -trace 1 run (default "+scratchDir+"/spans/WORKLOAD-seedN.jsonl)")
	compare := fs.Bool("compare", false, "compare two files of run outputs: -compare PARENT CHANGE")
	benchJSON := fs.String("bench-json", "BENCHMARK.json", "bounds for -compare")
	update := fs.Bool("update", false, "recompute the pinned result digests of seeds 1-3")
	digestsPath := fs.String("digests", "bench/testdata/digests.json", "digest file -update writes")
	setupOnly := fs.Bool("setup-only", false, "time set-up alone and exit (set-up samples in fresh processes)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *compare:
		return compareMain(fs.Args(), *benchJSON, stdout, stderr)
	case *update:
		if err := updateDigests(*digestsPath, scratchDir+"/tmp", stderr); err != nil {
			fmt.Fprintln(stderr, "cmpbench:", err)
			return 1
		}
		return 0
	case *traceFlag != 0 && *traceFlag != 1:
		fmt.Fprintln(stderr, "cmpbench: -trace must be 0 or 1")
		return 2
	case *seconds < 1:
		fmt.Fprintln(stderr, "cmpbench: -seconds must be at least 1")
		return 2
	case *name == "all":
		return runAll(*seed, *seconds, *traceFlag, stdout, stderr)
	}
	def, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "cmpbench: unknown workload %q (have %s, all)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	table, err := loadDigests()
	if err != nil {
		fmt.Fprintln(stderr, "cmpbench:", err)
		return 1
	}
	e := &env{seed: *seed, size: fullSize, tmp: scratchDir + "/tmp", pins: table, log: stderr}

	if *setupOnly {
		w, err := def.setup(e)
		if err != nil {
			fmt.Fprintln(stderr, "cmpbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "setup_s=%v\n", time.Since(start).Seconds())
		w.close()
		return 0
	}

	traced := *traceFlag == 1
	if err := json.NewEncoder(stdout).Encode(map[string]provenance{"provenance": hostProvenance(def.name, *seed, *seconds, *traceFlag)}); err != nil {
		return 1
	}
	if *spans == "" {
		*spans = fmt.Sprintf("%s/spans/%s-seed%d.jsonl", scratchDir, def.name, *seed)
	}
	more := func() ([]float64, error) { return setupSamples(def.name, *seed, 2, stderr) }
	rep, err := measure(def, e, time.Duration(*seconds)*time.Second, traced, start, more, *spans)
	if err != nil {
		fmt.Fprintln(stderr, "cmpbench:", err)
		return 1
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	if err := writeReport(stdout, rep, defs); err != nil {
		fmt.Fprintln(stderr, "cmpbench:", err)
		return 1
	}
	if rep.failed > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// provenance fingerprints the host and build behind one run.
type provenance struct {
	Workload    string `json:"workload"`
	Seed        int64  `json:"seed"`
	Seconds     int    `json:"seconds"`
	Trace       int    `json:"trace"`
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	CPUModel    string `json:"cpu_model"`
	GoVersion   string `json:"go_version"`
	VCSRevision string `json:"vcs_revision"`
	VCSModified bool   `json:"vcs_modified"`
	Timestamp   string `json:"timestamp"`
}

func hostProvenance(workload string, seed int64, seconds, trace int) provenance {
	p := provenance{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: cpuModel(), GoVersion: runtime.Version(), VCSRevision: "unknown",
		Timestamp: time.Now().UTC().Format(time.RFC3339),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.VCSRevision = s.Value
			case "vcs.modified":
				p.VCSModified = s.Value == "true"
			}
		}
	}
	return p
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of every run's output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// writeReport prints a table of defs (value, unit, sample count), then
// the result line.
func writeReport(w io.Writer, rep *report, defs []metricDef) error {
	out := resultLine{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricValue{}}
	for _, n := range rep.notes {
		fmt.Fprintln(w, n)
	}
	fmt.Fprintf(w, "%-36s %16s  %-14s %s\n", "metric", "value", "unit", "n")
	for _, d := range defs {
		r, ok := rep.metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(r.value) || math.IsInf(r.value, 0) {
			return fmt.Errorf("metric %s is %v", d.name, r.value)
		}
		fmt.Fprintf(w, "%-36s %16.6g  %-14s %d\n", d.name, r.value, d.unit, r.n)
		out.Metrics[d.name] = metricValue{r.value, d.unit}
	}
	fmt.Fprintf(w, "ops attempted %d, failed %d\n", rep.attempted, rep.failed)
	return json.NewEncoder(w).Encode(out)
}

// setupSamples times set-up in n fresh processes, one after another.
// The calibration memo the set-up fills is process-wide, so a second
// set-up in this process would not pay it.
func setupSamples(workload string, seed int64, n int, stderr io.Writer) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "-setup-only", "-workload", workload, "-seed", strconv.FormatInt(seed, 10))
		cmd.Stderr = stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up sample: %w", err)
		}
		v, err := strconv.ParseFloat(strings.TrimPrefix(strings.TrimSpace(string(b)), "setup_s="), 64)
		if err != nil {
			return nil, fmt.Errorf("set-up sample: %q: %w", bytes.TrimSpace(b), err)
		}
		out = append(out, v)
	}
	return out, nil
}

// runAll runs every workload in its own fresh process, one after
// another: the calibration memo and the default scheduler are
// process-wide, so workloads sharing a process would disturb each other.
func runAll(seed int64, seconds, trace int, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "cmpbench:", err)
		return 1
	}
	status := 0
	for _, w := range workloads {
		cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "cmpbench: %s: %v\n", w.name, err)
			status = 1
		}
	}
	return status
}
