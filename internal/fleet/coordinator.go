// The coordinator: owns every pending data point, leases them to
// workers, tracks heartbeats, and requeues work the moment a worker
// goes quiet, a lease expires, a response is malformed, or a pipe
// closes. Its Handle method is the whole protocol state machine —
// transport-independent and driven identically by ServePipe, the HTTP
// handler, and tests calling it directly.
package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"sync"
	"time"

	"cmpsim/internal/core"
	"cmpsim/internal/faultinject"
)

// Defaults for Config's zero values.
const (
	DefaultLeaseTimeout     = 10 * time.Minute
	DefaultHeartbeatTimeout = 30 * time.Second
	DefaultMaxRequeues      = 3
	DefaultMaxPointFailures = 2
)

// Config tunes one coordinator. The zero value is usable: defaults
// above, no store, wall-clock time.
type Config struct {
	// LeaseTimeout bounds one lease's total lifetime: a point not
	// reported back within it is requeued even if heartbeats keep
	// arriving (a wedged simulation heartbeats forever).
	LeaseTimeout time.Duration

	// HeartbeatTimeout requeues a lease whose worker has not been heard
	// from (heartbeat or result) for this long.
	HeartbeatTimeout time.Duration

	// MaxRequeues bounds how many times one point may be requeued
	// (worker loss, expiry, malformed results, worker-reported failures)
	// before the point degrades to a permanent failure.
	MaxRequeues int

	// MaxPointFailures degrades a point to FAILED(reason) once this many
	// distinct workers report the same failure for it: the point, not
	// the workers, is broken.
	MaxPointFailures int

	// Store, when set, is consulted before leasing (a point already on
	// disk is served without simulation) and fed every accepted result.
	Store *Store

	// Journal, when set, is the durable write-ahead log: every lease
	// grant, requeue, failure signature, permanent failure and
	// completion is fsync'd to it before the coordinator acts on the
	// event, and the replayed state it carries (from OpenJournal) seeds
	// the new coordinator — leases stay resolvable across a crash and
	// requeue budgets never restart. Nil journals nothing.
	Journal *Journal

	// Fault, when set together with Crash, consults coordinator crash
	// rules (kind=killcoord|restartcoord) as each worker request
	// arrives; a firing rule invokes Crash before the request is
	// processed. Test/chaos support only.
	Fault *faultinject.Injector

	// Crash performs an injected coordinator crash (normally it never
	// returns: os.Exit in the command, a panic or channel signal in
	// tests). Nil disables crash rules.
	Crash func(kind faultinject.Kind)

	// Now substitutes a fake clock for lease/heartbeat bookkeeping in
	// tests. Nil means time.Now.
	Now func() time.Time

	// ExpiryInterval, when positive, runs CheckExpired on a background
	// ticker until Shutdown. Zero means the owner calls CheckExpired.
	ExpiryInterval time.Duration

	// Logf, when set, receives one line per notable event (lease,
	// result, requeue, worker loss). Nil discards them.
	Logf func(format string, args ...any)
}

// Point lifecycle inside the coordinator.
type pointState int

const (
	statePending pointState = iota // queued, waiting for a worker
	stateLeased                    // leased out, heartbeats expected
	stateDone                      // result accepted
	stateFailed                    // permanently failed
)

// trackedPoint is the coordinator's bookkeeping for one data point.
type trackedPoint struct {
	key   string
	bench string
	mech  core.Mechanisms
	opts  core.Options // canonical

	state    pointState
	lease    uint64 // current lease id while leased
	worker   string // current lease holder
	leasedAt time.Time
	lastBeat time.Time
	requeues int

	// failures records, per distinct worker, the failure signature that
	// worker reported for this point (reason + error text).
	failures map[string]string

	point core.Point
	err   error
	done  chan struct{} // closed exactly once on done/failed
}

// workerInfo is the per-worker accounting surfaced by Report.
type workerInfo struct {
	leases     int
	results    int
	failures   int
	duplicates int
	malformed  int
	lost       bool
}

// Coordinator is the sweep service's server half. Safe for concurrent
// use from any number of transport goroutines and RunPoint callers.
type Coordinator struct {
	cfg Config

	mu        sync.Mutex
	points    map[string]*trackedPoint
	queue     []string // pending keys, FIFO
	leases    map[uint64]string
	nextLease uint64
	workers   map[string]*workerInfo
	draining  bool
	closed    bool

	fromStore  int
	recovered  int
	requeues   int
	expired    int
	lost       int
	duplicates int
	malformed  int

	stopExpiry chan struct{}
}

// NewCoordinator builds a coordinator, applying Config defaults and —
// when ExpiryInterval is set — starting the expiry ticker.
func NewCoordinator(cfg Config) *Coordinator {
	if cfg.LeaseTimeout <= 0 {
		cfg.LeaseTimeout = DefaultLeaseTimeout
	}
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = DefaultHeartbeatTimeout
	}
	if cfg.MaxRequeues <= 0 {
		cfg.MaxRequeues = DefaultMaxRequeues
	}
	if cfg.MaxPointFailures <= 0 {
		cfg.MaxPointFailures = DefaultMaxPointFailures
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	c := &Coordinator{
		cfg:     cfg,
		points:  make(map[string]*trackedPoint),
		leases:  make(map[uint64]string),
		workers: make(map[string]*workerInfo),
	}
	if cfg.Journal != nil {
		c.recoverFromJournal()
	}
	if cfg.ExpiryInterval > 0 {
		c.stopExpiry = make(chan struct{})
		go c.expiryLoop(cfg.ExpiryInterval)
	}
	return c
}

// recoverFromJournal rebuilds tracked points from the journal replay
// plus a store scan. Runs at construction time, before any transport
// goroutine exists, so no locking is needed. For every recovered point:
// a store record wins outright (done, counted FromStore — a stored
// point is never re-simulated); a journaled permanent failure stays
// failed; an outstanding lease is reinstated with a fresh heartbeat
// window (its worker may still be alive and report late); anything else
// returns to the queue with its requeue budget and failure signatures
// intact. Keys are processed in sorted order so the rebuilt queue is
// deterministic across restarts.
func (c *Coordinator) recoverFromJournal() {
	rec := &c.cfg.Journal.rec
	now := c.cfg.Now()
	c.nextLease = rec.nextLease
	for _, key := range rec.sortedKeys() {
		rp := rec.points[key]
		tp := &trackedPoint{
			key: key, bench: rp.bench, mech: rp.mech, opts: rp.opts,
			requeues: rp.requeues, failures: rp.failures,
			done: make(chan struct{}),
		}
		switch {
		case c.storeHitLocked(tp):
			// stateDone, point filled, fromStore counted.
		case rp.failed:
			tp.state = stateFailed
			tp.err = &core.PointError{
				Benchmark: rp.bench, Mechanisms: rp.mech, Options: rp.opts,
				Attempts: rp.failTries, Reason: rp.failReason,
				Err: fmt.Errorf("fleet: recovered permanent failure: %s", rp.failError),
			}
			close(tp.done)
		case rp.bench == "":
			// The grant carrying this point's identity was lost to journal
			// corruption: nothing usable to rebuild. The new run's RunPoint
			// recreates the point from scratch.
			continue
		case rp.lease != 0:
			tp.state = stateLeased
			tp.lease = rp.lease
			tp.worker = rp.worker
			tp.leasedAt, tp.lastBeat = now, now
			c.logf("fleet: recovered lease %d: %s/%s (worker %s)", rp.lease, rp.bench, rp.mech.Label(), rp.worker)
		default:
			c.queue = append(c.queue, key)
		}
		c.points[key] = tp
		c.recovered++
	}
	// Every granted-but-unresolved lease id stays resolvable: a worker
	// that computed its point during the outage reports under a lease
	// the journal remembers, and the result is accepted like any late
	// result from a presumed-dead worker.
	for id, key := range rec.leases {
		if tp, ok := c.points[key]; ok && tp.state != stateDone && tp.state != stateFailed {
			c.leases[id] = key
		}
	}
	if c.recovered > 0 {
		c.logf("fleet: journal replay recovered %d points (%d leases live)", c.recovered, len(c.leases))
	}
}

// storeHitLocked resolves a tracked point from the store if its record
// is there: stateDone, waiters released at close, FromStore counted.
func (c *Coordinator) storeHitLocked(tp *trackedPoint) bool {
	if c.cfg.Store == nil {
		return false
	}
	p, hit := c.cfg.Store.LookupKey(tp.key, tp.opts.Seeds)
	if !hit {
		return false
	}
	tp.state = stateDone
	tp.point = p
	c.fromStore++
	close(tp.done)
	return true
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

func (c *Coordinator) expiryLoop(every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			c.CheckExpired()
		case <-c.stopExpiry:
			return
		}
	}
}

// RunPoint is the core.PointRunner the scheduler drives: it enqueues
// the point for leasing and blocks until a worker's accepted result (or
// a permanent failure) resolves it. Concurrent calls for the same key
// share one tracked point.
func (c *Coordinator) RunPoint(bench string, m core.Mechanisms, o core.Options) (core.Point, error) {
	o = core.CanonicalOptions(o)
	key := core.PointKey(bench, m, o)
	c.mu.Lock()
	tp, ok := c.points[key]
	if !ok {
		tp = &trackedPoint{
			key: key, bench: bench, mech: m, opts: o,
			failures: make(map[string]string),
			done:     make(chan struct{}),
		}
		c.points[key] = tp
		c.storeHitLocked(tp)
		if tp.state == statePending {
			switch {
			case c.closed:
				tp.state = stateFailed
				tp.err = errors.New("fleet: coordinator is shut down")
				close(tp.done)
			case c.draining:
				c.failLocked(tp, &core.PointError{
					Benchmark: bench, Mechanisms: m, Options: o,
					Attempts: 1, Reason: core.ReasonDrained,
					Err: errors.New("fleet: sweep draining; point not started"),
				})
			default:
				c.queue = append(c.queue, key)
			}
		}
	}
	c.mu.Unlock()
	<-tp.done
	c.mu.Lock()
	defer c.mu.Unlock()
	return tp.point, tp.err
}

// Handle runs one protocol request through the state machine and
// returns the reply. Every transport funnels into it. Coordinator
// crash rules are consulted before the request is processed, so an
// injected crash loses the message exactly like a real one would.
func (c *Coordinator) Handle(m Message) Message {
	if c.cfg.Fault != nil && c.cfg.Crash != nil {
		if kind, ok := c.cfg.Fault.Coord(m.Type, m.Worker); ok {
			c.logf("fleet: injected coordinator crash (%s) on %s from %s", kind, m.Type, m.Worker)
			c.cfg.Crash(kind)
			// If Crash returned (in-process harnesses), the request is
			// still lost: the "crashed" coordinator must not answer it.
			return Message{Type: MsgError, Error: "fleet: coordinator crashed"}
		}
	}
	switch m.Type {
	case MsgHello:
		c.mu.Lock()
		c.workerLocked(m.Worker)
		c.mu.Unlock()
		return Message{Type: MsgOK}
	case MsgNext:
		return c.handleNext(m)
	case MsgHeartbeat:
		return c.handleHeartbeat(m)
	case MsgResult:
		return c.handleResult(m)
	default:
		return Message{Type: MsgError, Error: fmt.Sprintf("fleet: unknown message type %q", m.Type)}
	}
}

// workerLocked returns (creating if needed) the row for one worker id.
func (c *Coordinator) workerLocked(id string) *workerInfo {
	if id == "" {
		id = "?"
	}
	w, ok := c.workers[id]
	if !ok {
		w = &workerInfo{}
		c.workers[id] = w
	}
	return w
}

// handleNext pops the oldest pending point into a fresh lease.
func (c *Coordinator) handleNext(m Message) Message {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workerLocked(m.Worker)
	w.lost = false // a polling worker is alive by definition
	if c.draining {
		// Draining: no new leases; idle workers are released. In-flight
		// leases stay valid and their results are still accepted.
		return Message{Type: MsgDone}
	}
	for len(c.queue) > 0 {
		key := c.queue[0]
		c.queue = c.queue[1:]
		tp := c.points[key]
		if tp == nil || tp.state != statePending {
			continue // resolved while queued (late result, store hit)
		}
		c.nextLease++
		now := c.cfg.Now()
		tp.state = stateLeased
		tp.lease = c.nextLease
		tp.worker = m.Worker
		tp.leasedAt = now
		tp.lastBeat = now
		c.leases[tp.lease] = key
		w.leases++
		// Write-ahead: the grant is durable before the worker learns of
		// it, so no lease can outlive the journal's knowledge of it.
		if err := c.cfg.Journal.append(jGrant, grantEvent{
			Lease: tp.lease, Worker: m.Worker, Key: key,
			Benchmark: tp.bench, Mechanisms: tp.mech, Options: tp.opts,
		}); err != nil {
			c.logf("fleet: journal grant: %v", err)
		}
		c.logf("fleet: lease %d: %s/%s -> %s", tp.lease, tp.bench, tp.mech.Label(), m.Worker)
		mech, opts := tp.mech, tp.opts
		return Message{
			Type: MsgLease, Lease: tp.lease, Key: key,
			Benchmark: tp.bench, Mechanisms: &mech, Options: &opts,
		}
	}
	if c.closed {
		return Message{Type: MsgDone}
	}
	return Message{Type: MsgWait}
}

// handleHeartbeat refreshes a live lease; a stale one is cancelled so
// the worker abandons the point.
func (c *Coordinator) handleHeartbeat(m Message) Message {
	c.mu.Lock()
	defer c.mu.Unlock()
	key, ok := c.leases[m.Lease]
	if !ok {
		return Message{Type: MsgCancel}
	}
	tp := c.points[key]
	if tp == nil || tp.state != stateLeased || tp.lease != m.Lease {
		return Message{Type: MsgCancel}
	}
	tp.lastBeat = c.cfg.Now()
	return Message{Type: MsgOK}
}

// handleResult validates and accepts one reported point (or failure).
// Duplicate and late results are acknowledged idempotently; malformed
// ones requeue the point and are counted against the reporting worker.
func (c *Coordinator) handleResult(m Message) Message {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workerLocked(m.Worker)
	key, ok := c.leases[m.Lease]
	if !ok {
		// A lease we never issued (or one already retired along with its
		// point): nothing to do, but tell the worker all is well.
		w.duplicates++
		c.duplicates++
		return Message{Type: MsgOK}
	}
	tp := c.points[key]
	if tp == nil {
		delete(c.leases, m.Lease)
		return Message{Type: MsgOK}
	}
	if tp.state == stateDone || tp.state == stateFailed {
		// Late duplicate for an already-resolved point.
		delete(c.leases, m.Lease)
		w.duplicates++
		c.duplicates++
		return Message{Type: MsgOK}
	}
	// Note: m.Lease may be a requeued (stale) lease whose worker turned
	// out to be alive after all. Its result is still a deterministic
	// function of the key, so a valid record is accepted below exactly
	// like one from the current lease holder.

	if m.Error != "" {
		// Worker-reported failure: the simulation itself failed over
		// there. Count it per distinct worker; the same signature from
		// enough workers means the point is broken, not the worker.
		delete(c.leases, m.Lease)
		w.failures++
		sig := m.Reason + ": " + m.Error
		tp.failures[m.Worker] = sig
		if err := c.cfg.Journal.append(jFailSig, failSigEvent{Key: tp.key, Worker: m.Worker, Sig: sig}); err != nil {
			c.logf("fleet: journal failsig: %v", err)
		}
		n := 0
		for _, s := range tp.failures {
			if s == sig {
				n++
			}
		}
		if n >= c.cfg.MaxPointFailures {
			reason := m.Reason
			if reason == "" {
				reason = core.ReasonError
			}
			c.failPermanentLocked(tp, &core.PointError{
				Benchmark: tp.bench, Mechanisms: tp.mech, Options: tp.opts,
				Attempts: tp.requeues + 1, Reason: reason,
				Err: fmt.Errorf("fleet: %d workers reported: %s", n, m.Error),
			})
			return Message{Type: MsgOK}
		}
		c.requeueLocked(tp, fmt.Sprintf("worker %s failure: %s", m.Worker, m.Error))
		return Message{Type: MsgOK}
	}

	rec, err := decodeResult(m)
	if err == nil && rec.Key() != key {
		err = fmt.Errorf("fleet: result key does not match lease %d", m.Lease)
	}
	if err != nil {
		// Malformed response: never trusted. The lease is spent; the
		// point goes back in the queue.
		delete(c.leases, m.Lease)
		w.malformed++
		c.malformed++
		c.requeueLocked(tp, fmt.Sprintf("malformed result from %s: %v", m.Worker, err))
		return Message{Type: MsgError, Error: err.Error()}
	}

	delete(c.leases, m.Lease)
	w.results++
	c.resolveLocked(tp, rec.Point, m.Lease)
	return Message{Type: MsgOK}
}

// decodeResult checks a result message's CRC and validates the record.
func decodeResult(m Message) (core.PointRecord, error) {
	var rec core.PointRecord
	if len(m.Data) == 0 {
		return rec, errors.New("fleet: result carries no record")
	}
	if crc32.ChecksumIEEE(m.Data) != m.CRC {
		return rec, errors.New("fleet: result checksum mismatch")
	}
	if err := json.Unmarshal(m.Data, &rec); err != nil {
		return rec, fmt.Errorf("fleet: malformed result record: %w", err)
	}
	if err := rec.Validate(); err != nil {
		return rec, err
	}
	return rec, nil
}

// resolveLocked retires an accepted result: store fed, completion
// journaled, waiters released — in that order, so a waiter never sees a
// result that is not yet durable, and a journaled completion always
// implies a stored record (a crash in between leaves store-only, which
// replay resolves via its store scan). A store write failure retires
// the point through the non-journaled failLocked, so a rerun retries
// it. Callers hold mu.
func (c *Coordinator) resolveLocked(tp *trackedPoint, p core.Point, lease uint64) {
	if c.cfg.Store != nil {
		if err := c.cfg.Store.Add(core.NewPointRecord(tp.bench, tp.mech, tp.opts, p)); err != nil {
			c.failLocked(tp, &core.PointError{
				Benchmark: tp.bench, Mechanisms: tp.mech, Options: tp.opts,
				Attempts: tp.requeues + 1, Reason: core.ReasonError,
				Err: fmt.Errorf("persist: %w", err),
			})
			return
		}
	}
	if err := c.cfg.Journal.append(jDone, doneEvent{Key: tp.key, Lease: lease}); err != nil {
		c.logf("fleet: journal done: %v", err)
	}
	tp.state = stateDone
	tp.point = p
	tp.err = nil
	close(tp.done)
	c.logf("fleet: done: %s/%s", tp.bench, tp.mech.Label())
}

// failLocked retires a point permanently. Callers hold mu. It does NOT
// journal: drain and shutdown failures are transient to the sweep (a
// restarted coordinator should retry those points), so only the
// genuine permanent-failure sites go through failPermanentLocked.
func (c *Coordinator) failLocked(tp *trackedPoint, err error) {
	tp.state = stateFailed
	tp.err = err
	close(tp.done)
	c.logf("fleet: FAILED %s/%s: %v", tp.bench, tp.mech.Label(), err)
}

// failPermanentLocked journals a genuine permanent failure (requeue
// budget exhausted, too many distinct workers reporting the same
// signature) and retires the point. A restarted coordinator keeps the
// point failed instead of burning workers on it again. Callers hold mu.
func (c *Coordinator) failPermanentLocked(tp *trackedPoint, perr *core.PointError) {
	if err := c.cfg.Journal.append(jFail, failEvent{
		Key: tp.key, Reason: perr.Reason, Error: perr.Err.Error(), Attempts: perr.Attempts,
	}); err != nil {
		c.logf("fleet: journal fail: %v", err)
	}
	c.failLocked(tp, perr)
}

// requeueLocked puts a leased (or just-unleased) point back in the
// queue, spending one unit of its requeue budget; an exhausted budget
// degrades the point to a permanent failure. Callers hold mu.
func (c *Coordinator) requeueLocked(tp *trackedPoint, why string) {
	if tp.state == stateDone || tp.state == stateFailed {
		return
	}
	// The old lease stays in the lease map on purpose: if the presumed-
	// dead worker reports after all, its (deterministic) result is still
	// usable. Entries retire when their result or the point arrives.
	tp.requeues++
	c.requeues++
	if tp.requeues > c.cfg.MaxRequeues {
		c.failPermanentLocked(tp, &core.PointError{
			Benchmark: tp.bench, Mechanisms: tp.mech, Options: tp.opts,
			Attempts: tp.requeues, Reason: core.ReasonError,
			Err: fmt.Errorf("fleet: requeue budget exhausted after %d attempts (last: %s)", tp.requeues, why),
		})
		return
	}
	if err := c.cfg.Journal.append(jRequeue, requeueEvent{Key: tp.key, Requeues: tp.requeues, Why: why}); err != nil {
		c.logf("fleet: journal requeue: %v", err)
	}
	c.logf("fleet: requeue %s/%s (%s)", tp.bench, tp.mech.Label(), why)
	tp.state = statePending
	tp.lease = 0
	tp.worker = ""
	c.queue = append(c.queue, tp.key)
}

// CheckExpired requeues every lease whose heartbeats stopped
// (HeartbeatTimeout since the last one) or whose total lifetime passed
// LeaseTimeout. Driven by the expiry ticker or called directly.
func (c *Coordinator) CheckExpired() {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Now()
	for _, tp := range c.points {
		if tp.state != stateLeased {
			continue
		}
		switch {
		case now.Sub(tp.lastBeat) > c.cfg.HeartbeatTimeout:
			c.expired++
			c.requeueLocked(tp, fmt.Sprintf("heartbeat lost (worker %s)", tp.worker))
		case now.Sub(tp.leasedAt) > c.cfg.LeaseTimeout:
			c.expired++
			c.requeueLocked(tp, fmt.Sprintf("lease expired (worker %s)", tp.worker))
		}
	}
}

// WorkerLost requeues every lease held by one worker — the pipe
// transport calls it the instant a worker's stream closes, so loss is
// detected without waiting out a heartbeat timeout.
func (c *Coordinator) WorkerLost(worker string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return // workers draining after Shutdown exited cleanly, not lost
	}
	w := c.workerLocked(worker)
	if w.lost {
		return
	}
	w.lost = true
	c.lost++
	for _, tp := range c.points {
		if tp.state == stateLeased && tp.worker == worker {
			c.requeueLocked(tp, fmt.Sprintf("worker %s lost", worker))
		}
	}
	c.logf("fleet: worker %s lost", worker)
}

// Drain flips the coordinator into drain mode: next requests get done
// (idle workers exit cleanly), no new leases are issued, and RunPoint
// calls for not-yet-queued points fail immediately with ReasonDrained.
// In-flight leases stay valid so their results are still accepted.
func (c *Coordinator) Drain() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.draining {
		return
	}
	c.draining = true
	c.logf("fleet: draining: no new leases; waiting for in-flight points")
}

// InFlight counts points currently leased out.
func (c *Coordinator) InFlight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, tp := range c.points {
		if tp.state == stateLeased {
			n++
		}
	}
	return n
}

// DrainAndWait drains, waits (bounded by timeout) for in-flight leases
// to resolve, then fails whatever is left with ReasonDrained and shuts
// down. Queued-but-unleased points fail without waiting: their journal
// state survives, so a restarted coordinator re-runs exactly them.
// Returns how many points were abandoned to the drain.
func (c *Coordinator) DrainAndWait(timeout time.Duration) int {
	c.Drain()
	deadline := time.Now().Add(timeout)
	for c.InFlight() > 0 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	c.mu.Lock()
	abandoned := 0
	for _, tp := range c.points {
		if tp.state == statePending || tp.state == stateLeased {
			abandoned++
			c.failLocked(tp, &core.PointError{
				Benchmark: tp.bench, Mechanisms: tp.mech, Options: tp.opts,
				Attempts: tp.requeues + 1, Reason: core.ReasonDrained,
				Err: errors.New("fleet: sweep drained before the point finished"),
			})
		}
	}
	c.queue = nil
	c.mu.Unlock()
	c.Shutdown()
	return abandoned
}

// Shutdown retires the coordinator: pending and leased points fail (a
// sweep normally calls it only after every RunPoint returned, so there
// is nothing left to fail), future next requests get done, and the
// expiry ticker stops. A sweep that finished cleanly — nothing pending,
// leased, or drained away — truncates its journal: the store alone
// carries the finished state, and the next run starts a fresh log.
// Idempotent.
func (c *Coordinator) Shutdown() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	clean := !c.draining
	for _, tp := range c.points {
		if tp.state == statePending || tp.state == stateLeased {
			clean = false
			c.failLocked(tp, errors.New("fleet: coordinator shut down with point unfinished"))
		}
	}
	c.queue = nil
	if clean {
		if err := c.cfg.Journal.reset(); err != nil {
			c.logf("fleet: journal reset: %v", err)
		}
	}
	stop := c.stopExpiry
	c.mu.Unlock()
	if stop != nil {
		close(stop)
	}
}

// WorkerRow is one worker's accounting in Stats.
type WorkerRow struct {
	Worker     string
	Leases     int // leases issued to this worker
	Results    int // accepted results
	Failures   int // worker-reported point failures
	Duplicates int // late/duplicate results (acknowledged, ignored)
	Malformed  int // results rejected by CRC/validation
	Lost       bool
}

// Stats is a snapshot of the coordinator's accounting.
type Stats struct {
	Points     int // tracked points
	FromStore  int // served from the shared store without leasing
	Recovered  int // rebuilt from the journal replay at startup
	Completed  int // resolved with an accepted result
	Failed     int // permanently failed
	Pending    int // still queued or leased
	Requeues   int // total requeue events
	Expired    int // requeues caused by heartbeat/lease expiry
	Lost       int // workers declared lost
	Duplicates int // duplicate results across all workers
	Malformed  int // malformed results across all workers
	Workers    []WorkerRow
}

// Stats snapshots the accounting (workers sorted by id).
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{
		Points: len(c.points), FromStore: c.fromStore, Recovered: c.recovered,
		Requeues: c.requeues, Expired: c.expired, Lost: c.lost,
		Duplicates: c.duplicates, Malformed: c.malformed,
	}
	for _, tp := range c.points {
		switch tp.state {
		case stateDone:
			st.Completed++
		case stateFailed:
			st.Failed++
		default:
			st.Pending++
		}
	}
	ids := make([]string, 0, len(c.workers))
	for id := range c.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		w := c.workers[id]
		st.Workers = append(st.Workers, WorkerRow{
			Worker: id, Leases: w.leases, Results: w.results, Failures: w.failures,
			Duplicates: w.duplicates, Malformed: w.malformed, Lost: w.lost,
		})
	}
	return st
}
