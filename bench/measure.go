package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cmpsim/internal/sim"
	"cmpsim/internal/store"
)

// metricDef is one reported metric. BENCHMARK.json lists the same names
// and units; the smoke test keeps the two in step.
type metricDef struct{ name, unit string }

// endToEnd metrics come from the untraced run (-trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_mips", "Minstr/s"},
	{"points_per_s", "points/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer metrics come from the traced run (-trace 1). Step layers are
// measured by record and replay (layers.go) on the workload's sample
// simulations; the cache rows and the windowed link/memory/prefetch
// rates are simulated quantities from sim.Metrics and repeat exactly.
var perLayer = []metricDef{
	{"workload.gen_ns_per_ref", "ns"},
	{"workload.refs_per_kinstr", "refs/kinstr"},
	{"workload.sizeof_ns_per_call", "ns"},
	{"workload.sizeof_calls_per_kinstr", "calls/kinstr"},
	{"workload.sizeof_memo_hit_ratio", "ratio"},
	{"codec.size_ns_per_line", "ns"},
	{"codec.lines_per_kinstr", "lines/kinstr"},
	{"prefetch.ns_per_call", "ns"},
	{"prefetch.calls_per_kinstr", "calls/kinstr"},
	{"prefetch.issued_per_kinstr", "pf/kinstr"},
	{"prefetch.accuracy", "ratio"},
	{"coherence.ns_per_call", "ns"},
	{"coherence.calls_per_kinstr", "calls/kinstr"},
	{"coherence.fasthit_ratio", "ratio"},
	{"cache.l1d_miss_rate", "ratio"},
	{"cache.l2_mpki", "misses/kinstr"},
	{"cache.compression_ratio", "ratio"},
	{"timing.bank_acquire_ns_per_call", "ns"},
	{"timing.bank_wait_cycles_per_grant", "cycles"},
	{"memory.ns_per_call", "ns"},
	{"memory.fetches_per_kinstr", "fetches/kinstr"},
	{"memory.dram_queue_cycles_per_fetch", "cycles"},
	{"link.queue_cycles_per_fetch", "cycles"},
	{"link.utilization", "ratio"},
	{"sim.ns_per_ref", "ns"},
	{"sim.self_ns_per_ref", "ns"},
	{"sim.allocs_per_kinstr", "allocs/kinstr"},
	{"sim.replay_fidelity", "ratio"},
	{"core.cpu_utilization", "ratio"},
	{"core.point_ms_p50", "ms"},
	{"core.point_ms_p90", "ms"},
	{"fleet.calls_per_point", "calls/point"},
	{"fleet.wait_replies_per_point", "replies/point"},
	{"fleet.requeues", "count"},
	{"fleet.call_busy_ratio", "ratio"},
	{"store.put_ms_p50", "ms"},
	{"store.open_ms", "ms"},
	{"store.get_us_per_call", "us"},
	{"store.warm_points_per_s", "points/s"},
	{"trace.clock_ns", "ns"},
	{"trace.overhead_pct", "%"},
}

// reading is one reported value and the number of samples behind it.
type reading struct {
	value float64
	n     int
}

type report struct {
	attempted, failed int
	metrics           map[string]reading
	notes             []string // printed above the metric table
}

func (r *report) set(name string, v float64, n int) { r.metrics[name] = reading{v, n} }

// measure sets the workload up and runs it. start is when the process
// began; setup_s runs from there to the first timed operation.
// moreSetups, when non-nil, times set-up again in fresh processes.
// Untraced, it reports the end-to-end metrics. Traced, it runs half the
// time untraced and half traced, then replays the layers, and reports
// the per-layer metrics and writes the spans to spansPath.
func measure(def workloadDef, e *env, d time.Duration, traced bool, start time.Time, moreSetups func() ([]float64, error), spansPath string) (*report, error) {
	w, err := def.setup(e)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", def.name, err)
	}
	defer w.close()
	setup := time.Since(start).Seconds()
	e.digests = e.pins.forRun(def.name, e.seed, w.opKeys())
	hp := newProbe()
	rep := &report{metrics: make(map[string]reading)}

	if !traced {
		setups := []float64{setup}
		if moreSetups != nil {
			more, err := moreSetups()
			if err != nil {
				return nil, err
			}
			setups = append(setups, more...)
		}
		ph, err := w.run(d, hp, nil)
		if err != nil {
			return nil, err
		}
		rep.attempted, rep.failed = ph.attempted, ph.failed
		rep.set("setup_s", median(setups), len(setups))
		rep.set("sim_mips", median(ph.mips), len(ph.mips))
		rep.set("points_per_s", median(ph.pointRates), len(ph.pointRates))
		rep.set("peak_rss_mb", peakRSSMB(), 1)
		rep.notes = append(rep.notes, fmt.Sprintf(
			"host speed %.3fx nominal (median of %d probe brackets); unscaled: sim_mips %.6g, points_per_s %.6g",
			median(ph.speeds), len(ph.speeds), median(ph.rawMips), median(ph.rawRates)))
		return rep, nil
	}

	plain, err := w.run(d/2, hp, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer(def.name)
	ph, err := w.run(d/2, hp, tr)
	if err != nil {
		return nil, err
	}
	rep.attempted, rep.failed = plain.attempted+ph.attempted, plain.failed+ph.failed
	if err := layerMetrics(rep, w.samples(), tr); err != nil {
		return nil, err
	}
	if err := storeMetrics(rep, plain.records, e.tmp, tr); err != nil {
		return nil, err
	}
	n := len(ph.latencies)
	rep.set("core.cpu_utilization", plain.cpu.Seconds()/(plain.wall.Seconds()*float64(runtime.GOMAXPROCS(0))), 1)
	rep.set("core.point_ms_p50", median(ph.latencies), n)
	rep.set("core.point_ms_p90", percentile(ph.latencies, 90), n)
	fc, cold := ph.fleet, float64(len(ph.seen))
	rep.set("fleet.calls_per_point", ratio(float64(fc.calls), cold), fc.calls)
	rep.set("fleet.wait_replies_per_point", ratio(float64(fc.waits), cold), fc.waits)
	rep.set("fleet.requeues", float64(fc.requeues), 1)
	rep.set("fleet.call_busy_ratio", ratio(fc.callTime.Seconds(), fleetWorkers*ph.coldWall.Seconds()), fc.calls)
	rep.set("store.warm_points_per_s", ph.warmRate, 1)
	rep.set("trace.clock_ns", clockNs(), 5)
	p := median(plain.pointRates)
	rep.set("trace.overhead_pct", ratio(p-median(ph.pointRates), p)*100, len(ph.pointRates))
	if err := os.MkdirAll(filepath.Dir(spansPath), 0o755); err != nil {
		return nil, err
	}
	return rep, tr.write(spansPath)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics re-drives each sample simulation: once through sim.Run
// (the whole-run cost and allocations), once through the record pass,
// then every layer's replay.
func layerMetrics(rep *report, samples []sim.Config, tr *tracer) error {
	var (
		dur                          = map[string]time.Duration{}
		calls                        = map[string]uint64{}
		simDur                       time.Duration
		simAllocs, steps, instr      uint64
		fastHits, lines, bankCalls   uint64
		bankWait                     float64
		l1dAcc, l1dMiss, l2Miss      uint64
		winInstr, fetches            uint64
		pfIssued, pfUseful           uint64
		dramQ, linkQ, linkUtil, comp float64
		fid                          = 1.0
	)
	for _, cfg := range samples {
		runtime.GC()
		var m sim.Metrics
		var err error
		t0 := time.Now()
		sp := timeSpan("sim.Run", 0, func() { m, err = sim.Run(cfg) })
		if err != nil {
			return err
		}
		tr.span("sim.Run", "layers", t0, sp.dur, 1, sp.allocs)
		t0 = time.Now()
		lg, err := record(cfg)
		if err != nil {
			return err
		}
		tr.span("record", "layers", t0, time.Since(t0), lg.steps, 0)
		spans, err := replayAll(lg)
		if err != nil {
			return err
		}
		for _, s := range spans {
			dur[s.name] += s.dur
			calls[s.name] += s.calls
			tr.span(s.name, "replay", s.start, s.dur, s.calls, s.allocs)
		}
		fid = math.Min(fid, fidelity(lg, &m))
		simDur += sp.dur
		simAllocs += sp.allocs
		steps += lg.steps
		instr += lg.instr
		fastHits += lg.fastHits
		lines += uint64(lg.lines.n)
		bankCalls += uint64(lg.banks.n)
		bankWait += lg.bankWait.Cycles()

		l1dAcc += m.L1DAccesses
		l1dMiss += m.L1DMisses
		l2Miss += m.L2Misses
		winInstr += m.Instructions
		fetches += m.MemFetches
		for _, eng := range m.Engines {
			pfIssued += eng.Prefetches
			pfUseful += eng.PrefetchHits + eng.PartialHits
		}
		dramQ += m.DRAMQueueDelay
		linkQ += m.LinkQueueDelay
		linkUtil += m.LinkUtilization
		comp += m.CompressionRatio
	}
	n := len(samples)
	ki := float64(instr) / 1000
	nsPer := func(layer string) float64 { return ratio(float64(dur[layer].Nanoseconds()), float64(calls[layer])) }
	perKI := func(layer string) float64 { return ratio(float64(calls[layer]), ki) }
	var layerNs time.Duration
	for _, l := range []string{spanGen, spanSizeOf, spanCoherence, spanPrefetch, spanBanks, spanMemory} {
		layerNs += dur[l] // the codec runs inside SizeOf
	}
	rep.set("workload.gen_ns_per_ref", nsPer(spanGen), n)
	rep.set("workload.refs_per_kinstr", ratio(float64(steps), ki), n)
	rep.set("workload.sizeof_ns_per_call", nsPer(spanSizeOf), n)
	rep.set("workload.sizeof_calls_per_kinstr", perKI(spanSizeOf), n)
	rep.set("workload.sizeof_memo_hit_ratio", 1-ratio(float64(lines), float64(calls[spanSizeOf])), n)
	rep.set("codec.size_ns_per_line", nsPer(spanCodec), n)
	rep.set("codec.lines_per_kinstr", perKI(spanCodec), n)
	rep.set("prefetch.ns_per_call", nsPer(spanPrefetch), n)
	rep.set("prefetch.calls_per_kinstr", perKI(spanPrefetch), n)
	rep.set("prefetch.issued_per_kinstr", ratio(float64(pfIssued)*1000, float64(winInstr)), n)
	rep.set("prefetch.accuracy", ratio(float64(pfUseful), float64(pfIssued)), n)
	rep.set("coherence.ns_per_call", nsPer(spanCoherence), n)
	rep.set("coherence.calls_per_kinstr", perKI(spanCoherence), n)
	rep.set("coherence.fasthit_ratio", ratio(float64(fastHits), float64(steps)), n)
	rep.set("cache.l1d_miss_rate", ratio(float64(l1dMiss), float64(l1dAcc)), n)
	rep.set("cache.l2_mpki", ratio(float64(l2Miss)*1000, float64(winInstr)), n)
	rep.set("cache.compression_ratio", comp/float64(n), n)
	rep.set("timing.bank_acquire_ns_per_call", nsPer(spanBanks), n)
	rep.set("timing.bank_wait_cycles_per_grant", ratio(bankWait, float64(bankCalls)), n)
	rep.set("memory.ns_per_call", nsPer(spanMemory), n)
	rep.set("memory.fetches_per_kinstr", ratio(float64(fetches)*1000, float64(winInstr)), n)
	rep.set("memory.dram_queue_cycles_per_fetch", ratio(dramQ, float64(fetches)), n)
	rep.set("link.queue_cycles_per_fetch", ratio(linkQ, float64(fetches)), n)
	rep.set("link.utilization", linkUtil/float64(n), n)
	rep.set("sim.ns_per_ref", ratio(float64(simDur.Nanoseconds()), float64(steps)), n)
	rep.set("sim.self_ns_per_ref", ratio(float64((simDur-layerNs).Nanoseconds()), float64(steps)), n)
	rep.set("sim.allocs_per_kinstr", ratio(float64(simAllocs), ki), n)
	rep.set("sim.replay_fidelity", fid, n)
	if fid < 0.9 {
		return fmt.Errorf("record pass strayed from the simulator: fidelity %.4f < 0.9", fid)
	}
	return nil
}

// storeMetrics times the durable record path on the workload's own
// results: each is appended (fsync'd) to a fresh store under its op
// key, the store is reopened (a full scan with CRC checks), and every
// record is read back and compared.
func storeMetrics(rep *report, recs []opResult, tmp string, tr *tracer) error {
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(tmp, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	s, err := store.Open(dir, 0)
	if err != nil {
		return err
	}
	var puts []float64
	for _, r := range recs {
		t0 := time.Now()
		err := s.Put(r.key, r.data)
		d := time.Since(t0)
		tr.span("store.Put", "store", t0, d, 1, 0)
		if err != nil {
			s.Close()
			return err
		}
		puts = append(puts, float64(d.Nanoseconds())/1e6)
	}
	if err := s.Close(); err != nil {
		return err
	}
	t0 := time.Now()
	s, err = store.Open(dir, 0)
	open := time.Since(t0)
	tr.span("store.Open", "store", t0, open, 1, 0)
	if err != nil {
		return err
	}
	defer s.Close()
	// A Get is cheaper than a clock read, so all of them share one span.
	got := make([][]byte, len(recs))
	t0 = time.Now()
	for i, r := range recs {
		got[i], _ = s.Get(r.key)
	}
	gets := time.Since(t0)
	tr.span("store.Get", "store", t0, gets, uint64(len(recs)), 0)
	for i, r := range recs {
		if !bytes.Equal(got[i], r.data) {
			return fmt.Errorf("store replay: %s did not read back", r.key)
		}
	}
	rep.set("store.put_ms_p50", median(puts), len(puts))
	rep.set("store.open_ms", float64(open.Nanoseconds())/1e6, 1)
	rep.set("store.get_us_per_call", ratio(float64(gets.Nanoseconds())/1e3, float64(len(recs))), len(recs))
	return nil
}

// clockNs is the median cost of one clock read, over five batches.
func clockNs() float64 {
	const n = 100_000
	var costs []float64
	var sink int64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		for j := 0; j < n; j++ {
			sink += time.Now().UnixNano() & 1
		}
		costs = append(costs, float64(time.Since(t0).Nanoseconds())/n)
	}
	_ = sink
	return median(costs)
}
