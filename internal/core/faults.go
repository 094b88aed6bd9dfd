// Failure taxonomy for the experiment pipeline. The scheduler separates
// two classes of trouble:
//
//   - Programmer errors surface immediately: Submit on a closed
//     scheduler panics, because a caller that submits after closing is
//     itself broken.
//   - Point failures — a panicking seed job, a runaway simulation
//     abandoned by the watchdog, an error from the simulation, an
//     invalid request — are data, not disasters: they are
//     carried through the future/Observer plumbing as a *PointError and
//     render as FAILED cells in study rows, so one bad point cannot take
//     down a sweep.
package core

import (
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"cmpsim/internal/audit"
	"cmpsim/internal/sim"
)

// Failure reasons carried by PointError. No failure is retried:
// sim.Run is deterministic, so a second attempt would repeat the first.
const (
	ReasonPanic     = "panic"     // the seed job panicked (isolated by recover)
	ReasonTimeout   = "timeout"   // the watchdog abandoned a runaway simulation
	ReasonError     = "error"     // the simulation (or fault hook) returned an error
	ReasonInvariant = "invariant" // the runtime auditor detected state corruption
	ReasonDrained   = "drained"   // the sweep was drained (SIGINT/SIGTERM) before the point ran
)

// ErrPointTimeout marks a seed job abandoned by the per-point watchdog
// (Options.PointTimeout); the runaway goroutine is left to finish into
// a channel nobody reads.
var ErrPointTimeout = errors.New("core: point deadline exceeded")

// PointError describes one failed data point: which seed job failed,
// why, and with what evidence. It is the error PointFuture.Wait returns
// for failed points and the Err carried by their PointFinish events.
type PointError struct {
	Benchmark  string
	Mechanisms Mechanisms
	Options    Options // canonical form (the cache key's option set)
	Seed       int     // the first failing seed
	Attempts   int     // 1 locally; on a fleet, the leases the point used
	Reason     string  // ReasonPanic, ReasonTimeout or ReasonError
	Stack      string  // goroutine stack at the panic site (ReasonPanic only)
	Err        error   // underlying cause
}

// Error formats the full failure record (sans stack).
func (e *PointError) Error() string {
	return fmt.Sprintf("core: point %s/%s seed %d failed after %d attempt(s): %v",
		e.Benchmark, e.Mechanisms.Label(), e.Seed, e.Attempts, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *PointError) Unwrap() error { return e.Err }

// Cell is the short form report tables print inside FAILED(...) cells.
func (e *PointError) Cell() string {
	if e.Reason == ReasonTimeout {
		return fmt.Sprintf("timeout (seed %d)", e.Seed)
	}
	var v *audit.Violation
	if errors.As(e.Err, &v) {
		return fmt.Sprintf("invariant:%s (seed %d)", v.Invariant, e.Seed)
	}
	return fmt.Sprintf("%v (seed %d)", e.Err, e.Seed)
}

// panicError wraps a recovered panic value so it can travel as an error.
type panicError struct {
	val   any
	stack string
}

func (e *panicError) Error() string { return fmt.Sprintf("panic: %v", e.val) }

// newPointError classifies err and wraps it with the failing job's
// identity.
func (e *pointEntry) newPointError(seed int, err error) *PointError {
	pe := &PointError{
		Benchmark: e.bench, Mechanisms: e.mech, Options: e.opts,
		Seed: seed, Attempts: 1, Reason: ReasonError, Err: err,
	}
	var p *panicError
	var v *audit.Violation
	switch {
	case errors.As(err, &p):
		pe.Reason = ReasonPanic
		pe.Stack = p.stack
	case errors.Is(err, ErrPointTimeout):
		pe.Reason = ReasonTimeout
	case errors.As(err, &v):
		pe.Reason = ReasonInvariant
	}
	return pe
}

// simulateSeed runs one seed job with panic isolation and the optional
// watchdog deadline. Any failure comes back as a *PointError.
func (e *pointEntry) simulateSeed(seed int) (sim.Metrics, error) {
	cfg := e.opts.config(e.bench, e.mech, int64(seed)+1)
	if e.checkSet {
		cfg.CheckLevel = e.checkLevel
	}
	if e.stateFault != nil {
		cfg.StateFault = e.stateFault(e.bench, e.mech.Label(), seed)
	}
	met, err := e.runWithDeadline(cfg, seed)
	if err != nil {
		return sim.Metrics{}, e.newPointError(seed, err)
	}
	return met, nil
}

// runWithDeadline executes the simulation. Without a deadline it runs
// inline on the worker; with one it runs in a child goroutine the
// watchdog abandons on expiry (the runaway goroutine finishes into a
// buffered channel nobody reads and is then collected).
func (e *pointEntry) runWithDeadline(cfg sim.Config, seed int) (sim.Metrics, error) {
	if e.timeout <= 0 {
		return e.guardedRun(cfg, seed)
	}
	type result struct {
		met sim.Metrics
		err error
	}
	ch := make(chan result, 1)
	go func() {
		met, err := e.guardedRun(cfg, seed)
		ch <- result{met, err}
	}()
	timer := time.NewTimer(e.timeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.met, r.err
	case <-timer.C:
		return sim.Metrics{}, fmt.Errorf("%w (no result within %v)", ErrPointTimeout, e.timeout)
	}
}

// guardedRun fires the fault-injection hook (if any) and the simulation
// with panic isolation: a panic anywhere below becomes a panicError
// instead of killing the worker pool.
func (e *pointEntry) guardedRun(cfg sim.Config, seed int) (met sim.Metrics, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &panicError{val: r, stack: string(debug.Stack())}
		}
	}()
	if e.faultHook != nil {
		if herr := e.faultHook(e.bench, e.mech.Label(), seed); herr != nil {
			return sim.Metrics{}, herr
		}
	}
	return sim.Run(cfg)
}
