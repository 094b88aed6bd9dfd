package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"cmpsim/internal/audit"
	"cmpsim/internal/codec"
	"cmpsim/internal/core"
	"cmpsim/internal/sim"
)

// pointReq is one data point a workload submits.
type pointReq struct {
	bench string
	mech  core.Mechanisms
	opts  core.Options
}

func (p pointReq) key() string {
	k := fmt.Sprintf("%s/%s/bw=%g", p.bench, p.mech.Label(), p.opts.BandwidthGBps)
	if p.opts.Codec != "" {
		k = fmt.Sprintf("%s/%s/%s/bw=%g", p.bench, p.mech.Label(), p.opts.Codec, p.opts.BandwidthGBps)
	}
	return k
}

// instr is the instructions one simulation of the point retires.
func (p pointReq) instr() float64 {
	return float64(p.opts.Cores) * float64(p.opts.Warmup+p.opts.Measure) * float64(p.opts.Seeds)
}

// pointConfig is the sim.Config the core scheduler builds for the
// point's given seed, for the option fields the benchmark sets.
func pointConfig(p pointReq, seed int64) sim.Config {
	o := p.opts
	cfg := sim.NewConfig(p.bench)
	cfg.Cores, cfg.Seed = o.Cores, seed
	cfg.WarmupInstr, cfg.MeasureInstr = o.Warmup, o.Measure
	cfg = cfg.WithMechanisms(p.mech.CacheCompression, p.mech.LinkCompression, p.mech.Prefetching, p.mech.Adaptive)
	cfg.L2Bytes = o.L2MB << 20
	cfg.Codec = o.Codec
	if c, err := codec.ByName(o.Codec); err == nil && c.Name() != codec.DefaultName {
		cfg.DecompressionCycles = c.DecompressionCycles()
	}
	cfg.PrefetcherKind = o.PrefetcherKind
	cfg.Memory.LinkBytesPerCycle = o.BandwidthGBps / cfg.ClockGHz
	cfg.CheckLevel = audit.Off
	return cfg
}

// checkPoint applies checkMetrics to every run of a point.
func checkPoint(p pointReq, pt core.Point) error {
	if len(pt.Runs) != p.opts.Seeds {
		return fmt.Errorf("%d runs for %d seeds", len(pt.Runs), p.opts.Seeds)
	}
	for i := range pt.Runs {
		if err := checkMetrics(&pt.Runs[i], pointConfig(p, int64(i)+1)); err != nil {
			return err
		}
	}
	return nil
}

// sweep is the Table 5 interaction study on a private two-worker
// scheduler, one pass per fresh scheduler, as cmd/experiments runs it.
type sweep struct {
	e       *env
	benches []string
	o       core.Options
}

func newSweep(e *env) (runner, error) {
	sz := e.size
	s := &sweep{e: e, benches: sz.sweepBenches, o: core.Options{
		Cores: sz.sweepCores, Seeds: 1, Warmup: sz.sweepWarmup + seedOffset(e.seed), Measure: sz.sweepMeasure,
		BandwidthGBps: 20, L2MB: sz.sweepL2MB, CheckLevel: "off",
	}}
	for _, b := range s.benches {
		if err := calibrate(pointConfig(pointReq{b, core.Base, s.o}, 1)); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// points lists what Scheduler.InteractionStudy submits, in its order.
func (s *sweep) points() []pointReq {
	inf := s.o
	inf.BandwidthGBps = 0
	var ps []pointReq
	for _, b := range s.benches {
		ps = append(ps,
			pointReq{b, core.Base, s.o}, pointReq{b, core.Prefetch, s.o}, pointReq{b, core.Compression, s.o},
			pointReq{b, core.PrefCompr, s.o}, pointReq{b, core.AdaptiveCompr, s.o},
			pointReq{b, core.Base, inf}, pointReq{b, core.Prefetch, inf}, pointReq{b, core.PrefCompr, inf})
	}
	return ps
}

func (s *sweep) run(d time.Duration, hp *probe, tr *tracer) (*phase, error) {
	ph := newPhase()
	pts := s.points()
	var firstRows []byte
	before := hp.measure()
	var last time.Duration
	for pass := 0; pass < minOps || ph.elapsed()+last <= d; pass++ {
		sched := core.NewScheduler(2)
		if tr != nil {
			sched.SetObserver(func(ev core.PointEvent) {
				if ev.Kind == core.PointFinish {
					ph.latency(ev.Wall)
					tr.span("core.point", "sweep.pass", time.Now().Add(-ev.Wall), ev.Wall, 1, 0)
				}
			})
		}
		t0 := time.Now()
		rows := sched.InteractionStudy(s.benches, s.o)
		op := time.Since(t0)
		after := hp.measure()
		last = time.Since(t0)
		sp := speed(before, after)
		before = after
		tr.span("sweep.pass", "phase", t0, op, uint64(len(pts)), 0)
		instr := 0.0
		for _, p := range pts {
			ph.attempted++
			pt, err := sched.Submit(p.bench, p.mech, p.opts).Wait() // served from the pass's cache
			if err == nil {
				err = checkPoint(p, pt)
			}
			if err != nil {
				ph.fail(s.e, "%s: %v", p.key(), err)
				continue
			}
			if ph.result(s.e, p.key(), pt) != nil {
				instr += p.instr()
			}
		}
		sched.Close()
		rowsJSON, err := json.Marshal(rows)
		if err != nil {
			return nil, err
		}
		if firstRows == nil {
			firstRows = rowsJSON
		} else if !bytes.Equal(rowsJSON, firstRows) {
			ph.fail(s.e, "pass %d: Table 5 rows differ from pass 1", pass+1)
		}
		ph.rate(instr, float64(len(pts)), op, sp)
	}
	ph.finish()
	return ph, nil
}

func (s *sweep) samples() []sim.Config {
	var cfgs []sim.Config
	for _, b := range s.benches {
		cfgs = append(cfgs, pointConfig(pointReq{b, core.PrefCompr, s.o}, 1))
	}
	return cfgs
}

func (s *sweep) opKeys() []string { return pointKeys(s.points()) }

func pointKeys(pts []pointReq) []string {
	var keys []string
	for _, p := range pts {
		keys = append(keys, p.key())
	}
	return keys
}

func (s *sweep) reference() (map[string][]byte, error) {
	sched := core.NewScheduler(2)
	defer sched.Close()
	return collect(sched, s.points())
}

// collect submits every point to sched and returns each result's JSON.
func collect(sched *core.Scheduler, pts []pointReq) (map[string][]byte, error) {
	futs := make([]*core.PointFuture, len(pts))
	for i, p := range pts {
		futs[i] = sched.Submit(p.bench, p.mech, p.opts)
	}
	out := make(map[string][]byte)
	for i, f := range futs {
		pt, err := f.Wait()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pts[i].key(), err)
		}
		if out[pts[i].key()], err = jsonBytes(pt); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (s *sweep) close() {}
