package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"syscall"
	"time"

	"cmpsim/internal/sim"
)

// sizes fixes how much work one op of each workload is. fullSize is the
// benchmark; tinySize keeps the smoke test under a few seconds.
type sizes struct {
	serialCores                 int
	serialWarmup, serialMeasure uint64
	zeusSeeds, chaseSeeds       int

	sweepBenches              []string
	sweepCores, sweepL2MB     int
	sweepWarmup, sweepMeasure uint64

	fleetBenches              []string // nil: every registered benchmark
	fleetCodecs               []string
	fleetGBps                 []float64
	fleetCores, fleetL2MB     int
	fleetWarmup, fleetMeasure uint64
}

var fullSize = sizes{
	serialCores: 8, serialWarmup: 1_000_000, serialMeasure: 1_000_000,
	zeusSeeds: 6, chaseSeeds: 8,

	sweepBenches: []string{"apache", "jbb", "mgrid", "art", "zeus"},
	sweepCores:   8, sweepL2MB: 4, sweepWarmup: 120_000, sweepMeasure: 60_000,

	fleetCodecs: []string{"fpc", "bdi", "zca", "cpack"},
	fleetGBps:   []float64{10, 20, 40, 80},
	fleetCores:  2, fleetL2MB: 1, fleetWarmup: 20_000, fleetMeasure: 10_000,
}

var tinySize = sizes{
	serialCores: 2, serialWarmup: 20_000, serialMeasure: 10_000,
	zeusSeeds: 2, chaseSeeds: 2,

	sweepBenches: []string{"zeus", "mgrid"},
	sweepCores:   2, sweepL2MB: 1, sweepWarmup: 20_000, sweepMeasure: 10_000,

	fleetBenches: []string{"zeus", "ptrchase"},
	fleetCodecs:  []string{"fpc", "bdi"},
	fleetGBps:    []float64{20},
	fleetCores:   2, fleetL2MB: 1, fleetWarmup: 10_000, fleetMeasure: 5_000,
}

// seedOffset is how the workload seed reaches points whose sim seeds
// the core scheduler fixes: a warmup a few instructions longer changes
// every measured window, while adding at most 240 instructions per core,
// so no seed changes how much work a point is.
func seedOffset(seed int64) uint64 {
	m := seed % 16
	if m < 0 {
		m += 16
	}
	return 16 * uint64(m)
}

// env is what a workload is built from.
type env struct {
	seed    int64
	size    sizes
	tmp     string            // scratch root for stores; each workload removes what it made
	pins    digestTable       // pinned result digests; nil pins nothing
	digests map[string]string // this run's op key -> pinned digest; nil leaves results unpinned
	log     io.Writer         // failed checks are described here
}

// workloadDef names a workload and builds it. setup does everything
// before the first timed operation. Why each workload exists is in
// BENCHMARK.json and README.md.
type workloadDef struct {
	name  string
	setup func(e *env) (runner, error)
}

// runner is one set-up workload.
type runner interface {
	// run executes the closed loop for about d (never fewer than its
	// minimum number of ops), bracketing ops with hp. With tr non-nil it
	// also records spans at the benchmark's own seams.
	run(d time.Duration, hp *probe, tr *tracer) (*phase, error)
	// samples returns the simulations the layer replay re-drives.
	samples() []sim.Config
	// opKeys lists the key of every distinct op run can perform.
	opKeys() []string
	// reference computes every op's result by the plainest path, keyed
	// like run's results (digest pinning).
	reference() (map[string][]byte, error)
	close()
}

var workloads = []workloadDef{
	{"zeus-pfcompr", newZeus},
	{"ptrchase-markov", newChase},
	{"sweep-table5", newSweep},
	{"fleet-store", newFleet},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// minOps is the fewest ops (sims, passes, rounds) a phase runs, however
// short its time budget.
const minOps = 2

// opResult is one op's result as stored: key and JSON bytes.
type opResult struct {
	key  string
	data []byte
}

// phase is one timed closed loop's measurements.
type phase struct {
	start time.Time
	cpu0  time.Duration

	attempted, failed int
	wall, cpu         time.Duration

	// One entry per op, pass or batch: simulated Minstr and points per
	// second, as measured and scaled to the probe's nominal host speed,
	// and that speed.
	rawMips, rawRates []float64
	mips, pointRates  []float64
	speeds            []float64

	mu        sync.Mutex
	latencies []float64 // ms per point, as the submitting client saw it

	records []opResult // unique op results, in first-seen order
	seen    map[string]bool

	fleet    fleetCounts // zero outside the fleet workload
	warmRate float64     // store-served points per second (fleet workload only)
	coldWall time.Duration
}

func newPhase() *phase {
	return &phase{start: time.Now(), cpu0: cpuTime(), seen: make(map[string]bool)}
}

func (ph *phase) elapsed() time.Duration { return time.Since(ph.start) }

func (ph *phase) finish() {
	ph.wall = time.Since(ph.start)
	ph.cpu = cpuTime() - ph.cpu0
}

// rate records one op's simulated instructions and points over its wall
// time d, at host speed sp (see probe.go).
func (ph *phase) rate(instr, points float64, d time.Duration, sp float64) {
	mips, pps := instr/d.Seconds()/1e6, points/d.Seconds()
	ph.rawMips = append(ph.rawMips, mips)
	ph.rawRates = append(ph.rawRates, pps)
	ph.mips = append(ph.mips, mips/sp)
	ph.pointRates = append(ph.pointRates, pps/sp)
	ph.speeds = append(ph.speeds, sp)
}

func (ph *phase) latency(d time.Duration) {
	ph.mu.Lock()
	ph.latencies = append(ph.latencies, float64(d.Nanoseconds())/1e6)
	ph.mu.Unlock()
}

// fail counts one failed op and describes it.
func (ph *phase) fail(e *env, format string, args ...any) {
	ph.failed++
	if e.log != nil {
		fmt.Fprintln(e.log, "cmpbench: FAILED", fmt.Sprintf(format, args...))
	}
}

// result encodes one op's output, checks it against its pinned digest
// and keeps it for the store replay. It returns the encoding, or nil
// when the op failed a check.
func (ph *phase) result(e *env, key string, v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		ph.fail(e, "%s: encode result: %v", key, err)
		return nil
	}
	if e.digests != nil {
		if want, ok := e.digests[key]; !ok {
			ph.fail(e, "%s: no pinned digest for seed %d", key, e.seed)
			return nil
		} else if got := digest(b); got != want {
			ph.fail(e, "%s: result digest %s, pinned %s", key, got, want)
			return nil
		}
	}
	if _, dup := ph.seen[key]; !dup {
		ph.seen[key] = true
		ph.records = append(ph.records, opResult{key, b})
	}
	return b
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's maximum resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// tracer keeps spans in memory; write saves them as JSON lines. A nil
// tracer records nothing.
type tracer struct {
	workload string
	t0       time.Time
	mu       sync.Mutex
	spans    []traceSpan
}

type traceSpan struct {
	Workload string `json:"workload"`
	Name     string `json:"name"`
	Parent   string `json:"parent,omitempty"`
	StartNs  int64  `json:"start_ns"`
	DurNs    int64  `json:"dur_ns"`
	Calls    uint64 `json:"calls"`
	Allocs   uint64 `json:"allocs"`
}

func newTracer(workload string) *tracer { return &tracer{workload: workload, t0: time.Now()} }

func (t *tracer) span(name, parent string, start time.Time, d time.Duration, calls, allocs uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, traceSpan{t.workload, name, parent, start.Sub(t.t0).Nanoseconds(), d.Nanoseconds(), calls, allocs})
	t.mu.Unlock()
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
