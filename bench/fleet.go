package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"time"

	"cmpsim/internal/core"
	"cmpsim/internal/fleet"
	"cmpsim/internal/sim"
	"cmpsim/internal/workload"
)

// fleetWorkers is the number of in-process pipe workers (one simulation
// goroutine each, so the fleet never runs more sims than a 2-CPU host
// has CPUs).
const fleetWorkers = 2

// fleetWindow bounds the points outstanding at the coordinator: enough
// that a worker always finds a lease waiting instead of idle-polling.
const fleetWindow = 8

// fleetBatch is the cold pass's points per host-probe bracket.
const fleetBatch = 256

// fleetCounts is what the timing wrapper around the workers' Callers
// saw during a cold pass.
type fleetCounts struct {
	calls, waits, requeues int
	callTime               time.Duration
}

// fleetRig is one running fleet: a store and journal in a fresh
// directory, a coordinator, and pipe workers each on its own
// single-worker scheduler.
type fleetRig struct {
	dir   string
	store *fleet.Store
	jrnl  *fleet.Journal
	coord *fleet.Coordinator
	wg    sync.WaitGroup

	mu     sync.Mutex
	counts fleetCounts
	werr   error
}

// fleetBench pushes a grid of tiny points through a fleet (cold pass),
// then serves the same grid from the store it wrote (warm pass).
type fleetBench struct {
	e    *env
	grid []pointReq
	rig  *fleetRig // the next cold pass's fleet, started in advance
}

func newFleet(e *env) (runner, error) {
	sz := e.size
	benches := sz.fleetBenches
	if benches == nil {
		benches = workload.Names()
	}
	mechs := []core.Mechanisms{core.Base, core.CacheCompr, core.LinkCompr, core.Compression,
		core.Prefetch, core.AdaptivePf, core.PrefCompr, core.AdaptiveCompr}
	f := &fleetBench{e: e}
	for _, b := range benches {
		for _, c := range sz.fleetCodecs {
			o := core.Options{Cores: sz.fleetCores, Seeds: 1, Warmup: sz.fleetWarmup + seedOffset(e.seed),
				Measure: sz.fleetMeasure, L2MB: sz.fleetL2MB, Codec: c, CheckLevel: "off"}
			sys, err := sim.NewSystem(pointConfig(pointReq{b, core.Base, o}, 1))
			if err != nil {
				return nil, err
			}
			sys.Close()
			for _, bw := range sz.fleetGBps {
				o.BandwidthGBps = bw
				for _, m := range mechs {
					f.grid = append(f.grid, pointReq{b, m, o})
				}
			}
		}
	}
	// A seeded order mixes cheap and expensive points through the pass.
	rand.New(rand.NewSource(e.seed)).Shuffle(len(f.grid), func(i, j int) { f.grid[i], f.grid[j] = f.grid[j], f.grid[i] })
	rig, err := startFleet(e.tmp, nil)
	if err != nil {
		return nil, err
	}
	f.rig = rig
	return f, nil
}

// startFleet opens a store and journal in a fresh directory under tmp
// and starts the coordinator and its pipe workers.
func startFleet(tmp string, tr *tracer) (*fleetRig, error) {
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmp, "fleet-")
	if err != nil {
		return nil, err
	}
	rig := &fleetRig{dir: dir}
	t0 := time.Now()
	if rig.store, err = fleet.OpenStore(dir, 0); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	tr.span("fleet.OpenStore", "setup", t0, time.Since(t0), 1, 0)
	t0 = time.Now()
	if rig.jrnl, err = fleet.OpenJournal(dir); err != nil {
		rig.store.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	tr.span("fleet.OpenJournal", "setup", t0, time.Since(t0), 1, 0)
	rig.coord = fleet.NewCoordinator(fleet.Config{Store: rig.store, Journal: rig.jrnl})
	for w := 0; w < fleetWorkers; w++ {
		reqR, reqW := io.Pipe()
		repR, repW := io.Pipe()
		sched := core.NewScheduler(1)
		var call fleet.Caller = fleet.NewPipeCaller(repR, reqW)
		if tr != nil {
			call = &timedCaller{inner: call, rig: rig, tr: tr}
		}
		cfg := fleet.WorkerConfig{
			ID: fmt.Sprintf("w%d", w+1),
			// Leases carry canonical options, which drop CheckLevel.
			Runner: func(b string, m core.Mechanisms, o core.Options) (core.Point, error) {
				o.CheckLevel = "off"
				return sched.Submit(b, m, o).Wait()
			},
			// Idle polls at the default 200 ms would quantize the pass.
			PollInterval: 2 * time.Millisecond,
		}
		rig.wg.Add(2)
		go func() {
			defer rig.wg.Done()
			rig.noteErr(rig.coord.ServePipe(reqR, repW))
			repW.Close()
		}()
		go func() {
			defer rig.wg.Done()
			err := fleet.RunWorker(cfg, call)
			reqW.Close()
			sched.Close()
			rig.noteErr(err)
		}()
	}
	return rig, nil
}

// noteErr keeps the first transport or worker error for stop to report.
func (rig *fleetRig) noteErr(err error) {
	rig.mu.Lock()
	if rig.werr == nil {
		rig.werr = err
	}
	rig.mu.Unlock()
}

// stop shuts the coordinator down, waits for the workers and pipes to
// finish, and closes the store and journal. The directory stays for the
// warm pass.
func (rig *fleetRig) stop() error {
	rig.coord.Shutdown()
	rig.wg.Wait()
	err := rig.werr
	if cerr := rig.jrnl.Close(); err == nil {
		err = cerr
	}
	if cerr := rig.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// timedCaller times every protocol exchange a worker makes.
type timedCaller struct {
	inner fleet.Caller
	rig   *fleetRig
	tr    *tracer
}

func (c *timedCaller) Call(m fleet.Message) (fleet.Message, error) {
	t0 := time.Now()
	resp, err := c.inner.Call(m)
	d := time.Since(t0)
	c.tr.span("fleet.call."+m.Type, "fleet.cold", t0, d, 1, 0)
	c.rig.mu.Lock()
	c.rig.counts.calls++
	c.rig.counts.callTime += d
	if resp.Type == fleet.MsgWait {
		c.rig.counts.waits++
	}
	c.rig.mu.Unlock()
	return resp, err
}

// timedStore times the warm pass's store lookups.
type timedStore struct {
	inner core.PointStore
	tr    *tracer
}

func (s timedStore) Lookup(b string, m core.Mechanisms, o core.Options) (core.Point, bool) {
	t0 := time.Now()
	p, ok := s.inner.Lookup(b, m, o)
	s.tr.span("store.Lookup", "fleet.warm", t0, time.Since(t0), 1, 0)
	return p, ok
}

func (s timedStore) Add(rec core.PointRecord) error {
	t0 := time.Now()
	err := s.inner.Add(rec)
	s.tr.span("store.Add", "fleet.warm", t0, time.Since(t0), 1, 0)
	return err
}

func (f *fleetBench) run(d time.Duration, hp *probe, tr *tracer) (*phase, error) {
	rig := f.rig
	f.rig = nil
	if rig == nil || tr != nil {
		// A traced pass needs its seams in place before the workers start.
		if rig != nil {
			rig.stop()
			os.RemoveAll(rig.dir)
		}
		var err error
		if rig, err = startFleet(f.e.tmp, tr); err != nil {
			return nil, err
		}
	}
	defer os.RemoveAll(rig.dir)
	ph := newPhase()

	front := core.NewScheduler(fleetWindow)
	slots := make(chan struct{}, fleetWindow)
	front.SetPointRunner(func(b string, m core.Mechanisms, o core.Options) (core.Point, error) {
		defer func() { <-slots }()
		return rig.coord.RunPoint(b, m, o)
	})
	if tr != nil {
		front.SetObserver(func(ev core.PointEvent) {
			if ev.Kind == core.PointFinish {
				ph.latency(ev.Wall)
				tr.span("core.point", "fleet.cold", time.Now().Add(-ev.Wall), ev.Wall, 1, 0)
			}
		})
	}
	// The cold pass runs in batches bracketed by host probes.
	cold := make([][]byte, len(f.grid))
	pts := make([]core.Point, len(f.grid))
	errs := make([]error, len(f.grid))
	before := hp.measure()
	for lo := 0; lo < len(f.grid); lo += fleetBatch {
		hi := min(lo+fleetBatch, len(f.grid))
		t0 := time.Now()
		futs := make([]*core.PointFuture, 0, hi-lo)
		for _, p := range f.grid[lo:hi] {
			slots <- struct{}{}
			futs = append(futs, front.Submit(p.bench, p.mech, p.opts))
		}
		for i, fu := range futs {
			pts[lo+i], errs[lo+i] = fu.Wait()
		}
		op := time.Since(t0)
		after := hp.measure()
		sp := speed(before, after)
		before = after
		ph.coldWall += op
		tr.span("fleet.batch", "fleet.cold", t0, op, uint64(hi-lo), 0)
		instr := 0.0
		for i := lo; i < hi; i++ {
			p := f.grid[i]
			ph.attempted++
			err := errs[i]
			if err == nil {
				err = checkPoint(p, pts[i])
			}
			if err != nil {
				ph.fail(f.e, "%s: %v", p.key(), err)
				continue
			}
			if cold[i] = ph.result(f.e, p.key(), pts[i]); cold[i] != nil {
				instr += p.instr()
			}
		}
		ph.rate(instr, float64(hi-lo), op, sp)
	}
	front.Close()
	st := rig.coord.Stats()
	if err := rig.stop(); err != nil {
		return nil, err
	}
	ph.fleet = rig.counts
	ph.fleet.requeues = st.Requeues

	warm0 := time.Now()
	served := 0
	var last time.Duration
	for round := 0; round < 1 || ph.elapsed()+last <= d; round++ {
		t0 := time.Now()
		if err := f.warmRound(rig.dir, cold, ph, tr); err != nil {
			return nil, err
		}
		served += len(f.grid)
		last = time.Since(t0)
		tr.span("fleet.warm", "phase", t0, last, uint64(len(f.grid)), 0)
	}
	ph.warmRate = float64(served) / time.Since(warm0).Seconds()
	ph.finish()
	return ph, nil
}

// warmRound reopens the store and submits the whole grid to a fresh
// scheduler backed by it: every point must come from the store,
// byte-identical to its cold-pass result.
func (f *fleetBench) warmRound(dir string, cold [][]byte, ph *phase, tr *tracer) error {
	t0 := time.Now()
	st, err := fleet.OpenStore(dir, 0)
	if err != nil {
		return err
	}
	defer st.Close()
	tr.span("fleet.OpenStore", "fleet.warm", t0, time.Since(t0), 1, 0)
	sched := core.NewScheduler(fleetWorkers)
	defer sched.Close()
	var ps core.PointStore = st
	if tr != nil {
		ps = timedStore{inner: st, tr: tr}
	}
	sched.SetPointStore(ps)
	futs := make([]*core.PointFuture, len(f.grid))
	for i, p := range f.grid {
		futs[i] = sched.Submit(p.bench, p.mech, p.opts)
	}
	for i, fu := range futs {
		ph.attempted++
		pt, err := fu.Wait()
		if err != nil {
			ph.fail(f.e, "warm %s: %v", f.grid[i].key(), err)
			continue
		}
		if cold[i] == nil {
			continue // the cold pass already counted this point as failed
		}
		if b, err := jsonBytes(pt); err != nil || !bytes.Equal(b, cold[i]) {
			ph.fail(f.e, "warm %s: store result differs from the cold pass", f.grid[i].key())
		}
	}
	if s := sched.Stats(); s.FromStore != uint64(len(f.grid)) || s.Unique != 0 {
		ph.fail(f.e, "warm pass: %d of %d points from the store, %d simulated", s.FromStore, len(f.grid), s.Unique)
	}
	return nil
}

func (f *fleetBench) samples() []sim.Config {
	var cfgs []sim.Config
	for _, p := range f.grid {
		if p.mech == core.PrefCompr && p.opts.Codec == f.e.size.fleetCodecs[0] && p.opts.BandwidthGBps == f.e.size.fleetGBps[0] {
			cfgs = append(cfgs, pointConfig(p, 1))
		}
	}
	return cfgs
}

func (f *fleetBench) opKeys() []string { return pointKeys(f.grid) }

func (f *fleetBench) reference() (map[string][]byte, error) {
	sched := core.NewScheduler(fleetWorkers)
	defer sched.Close()
	return collect(sched, f.grid)
}

func (f *fleetBench) close() {
	if f.rig != nil {
		f.rig.stop()
		os.RemoveAll(f.rig.dir)
		f.rig = nil
	}
}
