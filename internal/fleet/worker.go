// The worker: a simulate-and-report loop around any Caller. It asks
// for a lease, heartbeats while the point runs, and reports the result
// as a checksummed PointRecord — or the failure, classified, if the
// simulation failed. Transport fault rules (internal/faultinject) hook
// the three exchange points (lease received, heartbeat due, result due)
// so tests can drop, delay, duplicate or corrupt any message, or kill
// the worker mid-point, deterministically.
package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"runtime/debug"
	"sync/atomic"
	"time"

	"cmpsim/internal/core"
	"cmpsim/internal/faultinject"
)

// ErrKilled is returned by RunWorker when a kind=kill fault rule fires:
// the worker abandons everything mid-point without a word to the
// coordinator, exactly like a crashed process.
var ErrKilled = errors.New("fleet: worker killed by fault rule")

// ErrDrained is returned by RunWorker when its Drain channel closed:
// the in-flight point (if any) was finished and reported, and the
// worker stopped asking for new leases.
var ErrDrained = errors.New("fleet: worker drained")

// Defaults for WorkerConfig's zero values.
const (
	DefaultHeartbeatInterval = 5 * time.Second
	DefaultPollInterval      = 200 * time.Millisecond
	DefaultMaxCallRetries    = 8
	DefaultCallBackoff       = 250 * time.Millisecond
)

// WorkerConfig tunes one worker loop.
type WorkerConfig struct {
	ID string // worker id carried on every request

	// Runner simulates one whole point locally; required. cmd/experiments
	// wires it to a core.Scheduler's Submit+Wait. The options are
	// canonical.
	Runner core.PointRunner

	// HeartbeatInterval spaces the keep-alives sent while a point runs;
	// it must be comfortably under the coordinator's HeartbeatTimeout.
	HeartbeatInterval time.Duration

	// PollInterval spaces next requests while the coordinator has no
	// pending work (wait replies).
	PollInterval time.Duration

	// MaxCallRetries bounds how many times one coordinator exchange is
	// retried after a transport failure (connection refused, EOF, 5xx —
	// anything the Caller reports as an error). Coordinator loss is
	// transient: the worker backs off exponentially with deterministic
	// jitter, re-introduces itself (hello) under the same ID, and
	// resends, so a result computed during a coordinator outage is
	// delivered after the restart. Zero means DefaultMaxCallRetries;
	// negative disables retry entirely.
	MaxCallRetries int

	// CallBackoff is the base of the exponential retry backoff (the
	// delay before retry n is roughly CallBackoff<<(n-1), capped, plus
	// jitter derived from the worker ID so a fleet does not reconnect in
	// lockstep). Zero means DefaultCallBackoff.
	CallBackoff time.Duration

	// Drain, when non-nil, stops the worker once the channel is closed:
	// the in-flight point (if any) is finished and reported first, then
	// RunWorker returns ErrDrained instead of asking for another lease.
	Drain <-chan struct{}

	// Fault, when set, applies transport fault rules at each exchange
	// point. Nil injects nothing.
	Fault *faultinject.Injector

	// Logf, when set, receives one line per notable event. Nil discards.
	Logf func(format string, args ...any)
}

// RunWorker runs the worker loop until the coordinator says done (nil),
// a kill rule fires (ErrKilled), or the transport breaks (the error).
func (cfg WorkerConfig) validate() error {
	if cfg.Runner == nil {
		return errors.New("fleet: WorkerConfig.Runner is required")
	}
	if cfg.ID == "" {
		return errors.New("fleet: WorkerConfig.ID is required")
	}
	return nil
}

// transportFault consults the fault rules for one exchange point and
// applies the immediate part (delay sleeps here). The returned kind is
// Drop, Dup, CorruptMsg or Kill; ok=false means proceed normally.
func (cfg *WorkerConfig) transportFault(msg, bench, label string) (faultinject.Kind, bool) {
	if cfg.Fault == nil {
		return 0, false
	}
	act, ok := cfg.Fault.Transport(msg, cfg.ID, bench, label)
	if !ok {
		return 0, false
	}
	if act.Kind == faultinject.Delay {
		time.Sleep(act.Delay)
		return 0, false
	}
	return act.Kind, true
}

// RunWorker connects to a coordinator through call and serves leases
// until the sweep is done (nil), the Drain channel closes (ErrDrained),
// a kill rule fires (ErrKilled), or the transport stays broken past the
// retry budget (the error).
func RunWorker(cfg WorkerConfig, call Caller) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = DefaultHeartbeatInterval
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = DefaultPollInterval
	}
	if cfg.MaxCallRetries == 0 {
		cfg.MaxCallRetries = DefaultMaxCallRetries
	}
	if cfg.MaxCallRetries < 0 {
		cfg.MaxCallRetries = 0
	}
	if cfg.CallBackoff <= 0 {
		cfg.CallBackoff = DefaultCallBackoff
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if _, err := cfg.call(call, Message{Type: MsgHello, Worker: cfg.ID}, logf); err != nil {
		return err
	}
	for {
		if cfg.drained() {
			logf("fleet: worker %s: drained", cfg.ID)
			return ErrDrained
		}
		resp, err := cfg.call(call, Message{Type: MsgNext, Worker: cfg.ID}, logf)
		if err != nil {
			return err
		}
		switch resp.Type {
		case MsgWait:
			time.Sleep(cfg.PollInterval)
		case MsgDone:
			logf("fleet: worker %s: sweep done", cfg.ID)
			return nil
		case MsgLease:
			if err := cfg.runLease(call, resp, logf); err != nil {
				return err
			}
		case MsgError:
			return fmt.Errorf("fleet: coordinator rejected next: %s", resp.Error)
		default:
			return fmt.Errorf("fleet: unexpected reply to next: %q", resp.Type)
		}
	}
}

// drained reports whether the Drain channel has closed.
func (cfg *WorkerConfig) drained() bool {
	if cfg.Drain == nil {
		return false
	}
	select {
	case <-cfg.Drain:
		return true
	default:
		return false
	}
}

// call sends one request, absorbing transient coordinator loss: a
// failed exchange backs off (exponential, deterministically jittered by
// worker ID), re-introduces the worker under its existing ID, and
// resends — so a restarted coordinator sees the same worker resume, and
// a result computed during the outage still lands. The retry budget
// bounds how long an unreachable coordinator is tolerated.
func (cfg *WorkerConfig) call(c Caller, m Message, logf func(string, ...any)) (Message, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			time.Sleep(cfg.retryDelay(attempt))
			if m.Type != MsgHello {
				if _, err := c.Call(Message{Type: MsgHello, Worker: cfg.ID}); err != nil {
					lastErr = err
					if attempt >= cfg.MaxCallRetries {
						break
					}
					continue
				}
				logf("fleet: worker %s: reconnected to coordinator (attempt %d)", cfg.ID, attempt)
			}
		}
		resp, err := c.Call(m)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if attempt >= cfg.MaxCallRetries {
			break
		}
		logf("fleet: worker %s: %s failed (%v), retrying", cfg.ID, m.Type, err)
	}
	return Message{}, fmt.Errorf("fleet: %s failed after %d attempts: %w", m.Type, cfg.MaxCallRetries+1, lastErr)
}

// retryDelay computes the pause before retry n: exponential in the base
// backoff (shift capped so a long outage polls steadily instead of
// diverging) plus up to 50% deterministic jitter from the worker ID —
// reproducible for a given fleet layout, but staggered across workers.
func (cfg *WorkerConfig) retryDelay(attempt int) time.Duration {
	shift := attempt - 1
	if shift > 6 {
		shift = 6
	}
	d := cfg.CallBackoff << uint(shift)
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", cfg.ID, attempt)
	jitter := time.Duration(h.Sum64() % uint64(d/2+1))
	return d + jitter
}

// runLease simulates one leased point and reports back. A drop or
// corruptmsg rule on the lease discards it silently (the coordinator
// requeues it on expiry); a kill rule anywhere aborts the worker.
func (cfg *WorkerConfig) runLease(call Caller, lease Message, logf func(string, ...any)) error {
	if lease.Mechanisms == nil || lease.Options == nil || lease.Benchmark == "" {
		return fmt.Errorf("fleet: lease %d is missing the point identity", lease.Lease)
	}
	bench, mech, opts := lease.Benchmark, *lease.Mechanisms, *lease.Options
	label := mech.Label()

	switch kind, ok := cfg.transportFault("lease", bench, label); {
	case !ok:
	case kind == faultinject.Kill:
		logf("fleet: worker %s: killed on lease %d", cfg.ID, lease.Lease)
		return ErrKilled
	default: // Drop or CorruptMsg: an undelivered/unreadable lease
		logf("fleet: worker %s: dropped lease %d", cfg.ID, lease.Lease)
		return nil
	}

	// Heartbeat until the point resolves; a cancel reply means the
	// coordinator requeued the lease, so the result must not be sent.
	var cancelled, killed atomic.Bool
	stop := make(chan struct{})
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		t := time.NewTicker(cfg.HeartbeatInterval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				switch kind, ok := cfg.transportFault("heartbeat", bench, label); {
				case !ok:
				case kind == faultinject.Kill:
					killed.Store(true)
					return
				default: // Drop/CorruptMsg: this heartbeat never arrives
					continue
				}
				resp, err := call.Call(Message{Type: MsgHeartbeat, Worker: cfg.ID, Lease: lease.Lease})
				if err != nil {
					// Coordinator unreachable: keep ticking. A restarted
					// coordinator reinstates the lease from its journal
					// with a fresh heartbeat window, so the next beat (or
					// the result itself) lands once it is back.
					continue
				}
				if resp.Type == MsgCancel {
					cancelled.Store(true)
					return
				}
			}
		}
	}()

	point, runErr := runGuarded(cfg.Runner, bench, mech, opts)
	close(stop)
	<-hbDone

	if killed.Load() {
		logf("fleet: worker %s: killed mid-point (lease %d)", cfg.ID, lease.Lease)
		return ErrKilled
	}
	if cancelled.Load() {
		logf("fleet: worker %s: lease %d cancelled, result discarded", cfg.ID, lease.Lease)
		return nil
	}

	msg, err := resultMessage(cfg.ID, lease.Lease, bench, mech, opts, point, runErr)
	if err != nil {
		// The record would not encode — report it as a failure instead
		// of going silent.
		msg = Message{Type: MsgResult, Worker: cfg.ID, Lease: lease.Lease,
			Error: err.Error(), Reason: core.ReasonError}
	}

	sends := 1
	switch kind, ok := cfg.transportFault("result", bench, label); {
	case !ok:
	case kind == faultinject.Kill:
		logf("fleet: worker %s: killed before result (lease %d)", cfg.ID, lease.Lease)
		return ErrKilled
	case kind == faultinject.Drop:
		logf("fleet: worker %s: dropped result (lease %d)", cfg.ID, lease.Lease)
		return nil
	case kind == faultinject.Dup:
		sends = 2
	case kind == faultinject.CorruptMsg:
		if len(msg.Data) > 0 {
			// Flip one payload byte after the CRC was computed, so the
			// coordinator's checksum rejects the record.
			msg.Data = append(json.RawMessage(nil), msg.Data...)
			msg.Data[len(msg.Data)/2] ^= 0xFF
		}
	}
	for i := 0; i < sends; i++ {
		resp, err := cfg.call(call, msg, logf)
		if err != nil {
			return err
		}
		if resp.Type == MsgError {
			logf("fleet: worker %s: result for lease %d rejected: %s", cfg.ID, lease.Lease, resp.Error)
		}
	}
	return nil
}

// runGuarded isolates runner panics into classified failures so a
// broken simulation reports instead of crashing the worker loop.
func runGuarded(run core.PointRunner, bench string, m core.Mechanisms, o core.Options) (p core.Point, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = &workerPanic{val: rec, stack: string(debug.Stack())}
		}
	}()
	return run(bench, m, o)
}

// workerPanic carries a recovered runner panic.
type workerPanic struct {
	val   any
	stack string
}

func (e *workerPanic) Error() string { return fmt.Sprintf("panic: %v", e.val) }

// resultMessage encodes one finished point (or its failure) for the
// wire. Success carries the checksummed PointRecord; failure carries
// the error text plus the core failure taxonomy when known.
func resultMessage(worker string, lease uint64, bench string, m core.Mechanisms, o core.Options, p core.Point, runErr error) (Message, error) {
	if runErr != nil {
		reason := core.ReasonError
		var pe *core.PointError
		var wp *workerPanic
		switch {
		case errors.As(runErr, &pe):
			reason = pe.Reason
		case errors.As(runErr, &wp):
			reason = core.ReasonPanic
		}
		return Message{Type: MsgResult, Worker: worker, Lease: lease,
			Error: runErr.Error(), Reason: reason}, nil
	}
	rec := core.NewPointRecord(bench, m, o, p)
	if err := rec.Validate(); err != nil {
		return Message{}, err
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return Message{}, fmt.Errorf("fleet: encode result record: %w", err)
	}
	return Message{Type: MsgResult, Worker: worker, Lease: lease,
		Data: data, CRC: crc32.ChecksumIEEE(data)}, nil
}
