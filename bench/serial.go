package main

import (
	"fmt"
	"runtime"
	"time"

	"cmpsim/internal/audit"
	"cmpsim/internal/sim"
)

// serial runs one simulation config over a fixed cycle of sim seeds,
// one sim.Run after another: what cmd/cmpsim does per invocation.
type serial struct {
	e    *env
	cfgs []sim.Config // sim seeds seed, seed+1, ...
}

func newZeus(e *env) (runner, error) {
	return newSerial(e, "zeus", "stride", e.size.zeusSeeds)
}

func newChase(e *env) (runner, error) {
	return newSerial(e, "ptrchase", "markov", e.size.chaseSeeds)
}

func newSerial(e *env, bench, prefetcher string, seeds int) (runner, error) {
	s := &serial{e: e}
	for k := 0; k < seeds; k++ {
		cfg := sim.NewConfig(bench) // 4 MB L2, 20 GB/s pins
		cfg.Cores = e.size.serialCores
		cfg.Seed = e.seed + int64(k)
		cfg.WarmupInstr, cfg.MeasureInstr = e.size.serialWarmup, e.size.serialMeasure
		cfg = cfg.WithMechanisms(true, true, true, false)
		cfg.PrefetcherKind = prefetcher
		cfg.CheckLevel = audit.Off
		if err := calibrate(cfg); err != nil {
			return nil, err
		}
		s.cfgs = append(s.cfgs, cfg)
	}
	return s, nil
}

// calibrate builds cfg's system once, which fills the process-wide
// calibration memo for its (benchmark, seed, codec) so no timed run pays
// for it. The collection afterwards keeps discarded set-up systems from
// deciding the process's peak memory.
func calibrate(cfg sim.Config) error {
	sys, err := sim.NewSystem(cfg)
	if err != nil {
		return err
	}
	sys.Close()
	runtime.GC()
	return nil
}

func simKey(cfg sim.Config) string { return fmt.Sprintf("sim-seed=%d", cfg.Seed) }

func (s *serial) run(d time.Duration, hp *probe, tr *tracer) (*phase, error) {
	ph := newPhase()
	before := hp.measure()
	var last time.Duration
	for k := 0; k < minOps || ph.elapsed()+last <= d; k++ {
		cfg := s.cfgs[k%len(s.cfgs)]
		t0 := time.Now()
		m, err := sim.Run(cfg)
		op := time.Since(t0)
		after := hp.measure()
		last = time.Since(t0)
		sp := speed(before, after)
		before = after
		tr.span("sim.Run", "phase", t0, op, 1, 0)
		ph.attempted++
		if err != nil {
			ph.fail(s.e, "%s: %v", simKey(cfg), err)
			continue
		}
		if err := checkMetrics(&m, cfg); err != nil {
			ph.fail(s.e, "%s: %v", simKey(cfg), err)
			continue
		}
		if ph.result(s.e, simKey(cfg), m) == nil {
			continue
		}
		ph.rate(float64(cfg.Cores)*float64(cfg.WarmupInstr+cfg.MeasureInstr), 1, op, sp)
		ph.latency(op)
	}
	ph.finish()
	return ph, nil
}

func (s *serial) samples() []sim.Config { return s.cfgs[:1] }

func (s *serial) opKeys() []string {
	var keys []string
	for _, cfg := range s.cfgs {
		keys = append(keys, simKey(cfg))
	}
	return keys
}

func (s *serial) reference() (map[string][]byte, error) {
	out := make(map[string][]byte)
	for _, cfg := range s.cfgs {
		m, err := sim.Run(cfg)
		if err != nil {
			return nil, err
		}
		if out[simKey(cfg)], err = jsonBytes(m); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (s *serial) close() {}
