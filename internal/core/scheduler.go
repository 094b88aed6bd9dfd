// Parallel experiment scheduler: a worker pool that fans out seed-level
// simulation jobs plus a memoizing point cache, so every unique
// (benchmark, mechanisms, canonical options) data point is simulated
// exactly once per process no matter how many studies request it.
//
// Determinism contract: a point's seeds are fixed (1..Seeds), each seed
// is an independent sim.Run on a private System, and the runs are
// assembled in seed order before the point is published. The resulting
// Point — including the stats.Summarize reduction — is therefore
// bit-identical whatever the worker count, including Workers == 1.
//
// Fault tolerance: every seed job runs with panic isolation, an
// optional watchdog deadline (Options.PointTimeout) and bounded
// retry-with-backoff for retryable failures; a failed point resolves
// its future with a *PointError instead of crashing the pool (see
// faults.go).
//
// Durability contract: an attached PointStore (SetPointStore) is the
// only durable record. A finished point is persisted, counted, announced
// to the observer and only then published to its future — so every
// result a caller has observed is already on disk, and a point whose
// store write fails resolves as a failed point instead of vanishing.
// Resubmitting a stored point restores it without simulating, so an
// interrupted sweep resumes with only the missing points simulated.
package core

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"cmpsim/internal/audit"
	"cmpsim/internal/sim"
	"cmpsim/internal/stats"
	"cmpsim/internal/workload"
)

// PointEventKind classifies scheduler progress events.
type PointEventKind int

const (
	// PointStart: a new unique point was submitted and its seed jobs queued.
	PointStart PointEventKind = iota
	// PointFinish: the point's last seed completed (or it failed validation).
	PointFinish
	// PointCached: a Submit was served from the memoized point cache.
	PointCached
	// PointRestored: a Submit was served from the attached result store
	// without simulating (resume).
	PointRestored
)

// String names the event kind for progress displays.
func (k PointEventKind) String() string {
	switch k {
	case PointStart:
		return "start"
	case PointFinish:
		return "finish"
	case PointCached:
		return "cached"
	case PointRestored:
		return "restored"
	default:
		return fmt.Sprintf("PointEventKind(%d)", int(k))
	}
}

// PointEvent is one scheduler progress notification.
type PointEvent struct {
	Kind       PointEventKind
	Benchmark  string
	Mechanisms Mechanisms
	Options    Options // canonical form (the cache key's option set)
	Seeds      int
	Wall       time.Duration // submit→finish wall-clock (PointFinish only)
	Point      *Point        // the finished point (PointFinish without error only)
	Err        error         // PointFinish only
}

// Observer receives progress events. Finish events fire from worker
// goroutines, so an observer must be safe for concurrent use; it should
// also return quickly, since it runs on the simulation workers, and must
// not Wait on the point it is told about: PointFinish fires before the
// point's future resolves. A panicking observer cannot kill a worker:
// the scheduler recovers, reports the first such panic to stderr, and
// keeps simulating.
type Observer func(PointEvent)

// FaultHook is consulted before every seed simulation. It exists for
// deterministic fault injection (internal/faultinject): the hook may
// panic, stall, or return an error, and the scheduler must survive all
// three. A nil hook is a no-op.
type FaultHook func(bench, label string, seed int) error

// StateFaultHook is consulted before every seed simulation to pick a
// state-corruption injection for that run: it returns a sim.Config
// StateFault spec ("name@step") or "" for none. It exists for
// internal/faultinject's corruption rules, which prove the runtime
// auditor's checker classes fire. A nil hook injects nothing.
type StateFaultHook func(bench, label string, seed int) string

// PointRunner executes one whole data point somewhere other than the
// local worker pool — internal/fleet's coordinator implements it by
// leasing the point to a worker process. The options are canonical; the
// runner must return a Point whose Runs length matches Options.Seeds,
// bit-identical to a local simulation (the fleet protocol's record
// round-trip guarantees this).
type PointRunner func(bench string, m Mechanisms, o Options) (Point, error)

// PointStore is a shared, cross-process cache of finished points (the
// result-store adapter in internal/fleet implements it over
// internal/store). Lookup must only return points it can vouch for
// (checksummed, seed count matching); Add must be safe to call from
// worker goroutines.
type PointStore interface {
	Lookup(bench string, m Mechanisms, o Options) (Point, bool)
	Add(rec PointRecord) error
}

// pointKey identifies one unique data point in the scheduler cache.
type pointKey struct {
	bench string
	mech  Mechanisms
	opts  Options
}

// pointEntry is the cache slot for one data point: filled in by seed
// jobs, published exactly once by closing done.
type pointEntry struct {
	bench string
	mech  Mechanisms
	opts  Options // canonical; builds the same sim.Configs as the original

	started time.Time
	notify  Observer // observer at submit time (nil = no events)

	// Robustness settings captured from the submitting Options (they are
	// canonicalized out of the cache key but still govern execution).
	timeout    time.Duration
	retries    int
	backoff    time.Duration
	faultHook  FaultHook
	stateFault StateFaultHook
	checkLevel audit.Level
	checkSet   bool // Options.CheckLevel was non-empty (overrides the env)

	mu      sync.Mutex
	runs    []sim.Metrics
	pending int
	err     error

	point Point
	done  chan struct{}
}

// key rebuilds the entry's cache key (opts are already canonical).
func (e *pointEntry) key() pointKey {
	return pointKey{bench: e.bench, mech: e.mech, opts: e.opts}
}

// runSeed executes one seed's simulation — with panic isolation, the
// watchdog deadline and retry policy (faults.go) — and finishes the
// point when it is the last seed to land.
func (e *pointEntry) runSeed(s *Scheduler, seed int) {
	met, err := e.simulateSeed(s, seed)
	e.mu.Lock()
	if err != nil && e.err == nil {
		e.err = err
	}
	e.runs[seed] = met
	e.pending--
	last := e.pending == 0
	e.mu.Unlock()
	if !last {
		return
	}
	if e.err == nil {
		p := Point{Benchmark: e.bench, Mechanisms: e.mech, Runs: e.runs}
		runtimes := make([]float64, len(e.runs))
		for i := range e.runs {
			runtimes[i] = e.runs[i].Cycles
		}
		p.Runtime = stats.Summarize(runtimes)
		e.point = p
	}
	e.finish(s)
}

// finish retires a point whose runs are all in, in the durability
// contract's order: persist, count, notify, publish. A store write
// failure turns the point into a failed one. Closing done is the last
// step, so a caller returning from Wait sees the point stored, counted
// in Stats and reported to the observer. Only the goroutine that
// completed the point calls finish.
func (e *pointEntry) finish(s *Scheduler) {
	if e.err == nil {
		if err := s.storeAdd(e.key(), e.point); err != nil {
			e.err = e.newPointError(0, 1, fmt.Errorf("persist: %w", err))
			e.point = Point{}
		}
	}
	if e.err != nil {
		s.noteFailed()
	}
	ev := PointEvent{
		Kind: PointFinish, Benchmark: e.bench, Mechanisms: e.mech, Options: e.opts,
		Seeds: e.opts.Seeds, Wall: time.Since(e.started), Err: e.err,
	}
	if e.err == nil {
		ev.Point = &e.point
	}
	s.safeNotify(e.notify, ev)
	close(e.done)
}

// runRemote executes the whole point through the installed PointRunner
// (the fleet lease adapter) and finishes it exactly like the last local
// seed job would. Runner panics are isolated into point errors so a
// broken transport cannot crash the process.
func (e *pointEntry) runRemote(s *Scheduler, r PointRunner) {
	p, err := func() (p Point, err error) {
		defer func() {
			if rec := recover(); rec != nil {
				err = &panicError{val: rec, stack: string(debug.Stack())}
			}
		}()
		return r(e.bench, e.mech, e.opts)
	}()
	if err == nil && len(p.Runs) != e.opts.Seeds {
		err = fmt.Errorf("core: remote runner returned %d runs for %d seeds", len(p.Runs), e.opts.Seeds)
	}
	if err != nil {
		var pe *PointError
		if !errors.As(err, &pe) {
			err = e.newPointError(0, 1, err)
		}
		e.err = err
	} else {
		e.point = p
		e.runs = p.Runs
	}
	e.finish(s)
}

// PointFuture is a handle to a submitted (possibly cached) data point.
type PointFuture struct{ e *pointEntry }

// Wait blocks until every seed of the point has been simulated and
// returns the assembled Point. Cached points return immediately.
func (f *PointFuture) Wait() (Point, error) {
	<-f.e.done
	return f.e.point, f.e.err
}

// MustWait is Wait for drivers iterating known-good benchmark names.
func (f *PointFuture) MustWait() Point {
	p, err := f.Wait()
	if err != nil {
		panic(err)
	}
	return p
}

type seedJob struct {
	entry *pointEntry
	seed  int
}

// Scheduler owns a worker pool and a memoizing point cache. Drivers
// submit every point of a study up front and then collect in paper
// order, so output order stays deterministic while the pool runs ahead.
// All methods are safe for concurrent use.
type Scheduler struct {
	mu         sync.Mutex
	cond       *sync.Cond
	queue      []seedJob
	target     int // pool size; workers spawn lazily up to it
	running    int
	closed     bool
	cache      map[pointKey]*pointEntry
	observer   Observer
	faultHook  FaultHook
	stateFault StateFaultHook
	store      PointStore
	runner     PointRunner

	requests  uint64
	unique    uint64
	seedRuns  uint64
	fromStore uint64
	failed    uint64
	retries   uint64

	obsPanicOnce sync.Once // first observer panic reported to stderr
}

// SetObserver installs (or, with nil, removes) the progress observer.
// Points submitted before the call keep the observer they were submitted
// with; install the observer before the study drivers run.
func (s *Scheduler) SetObserver(fn Observer) {
	s.mu.Lock()
	s.observer = fn
	s.mu.Unlock()
}

// SetFaultHook installs (or, with nil, removes) the deterministic
// fault-injection hook consulted before every seed simulation. Points
// submitted before the call keep the hook they were submitted with.
// This is test-only plumbing for internal/faultinject.
func (s *Scheduler) SetFaultHook(fn FaultHook) {
	s.mu.Lock()
	s.faultHook = fn
	s.mu.Unlock()
}

// SetStateFaultHook installs (or, with nil, removes) the state-fault
// injection hook consulted before every seed simulation. Points
// submitted before the call keep the hook they were submitted with.
// This is test plumbing for internal/faultinject's corruption rules.
func (s *Scheduler) SetStateFaultHook(fn StateFaultHook) {
	s.mu.Lock()
	s.stateFault = fn
	s.mu.Unlock()
}

// SetPointStore attaches a shared cross-process result store: finished
// points are persisted to it before their futures resolve, and
// submissions it already holds are restored without simulating
// (PointRestored events, counted in FromStore). Attach before the study
// drivers run and close it only after the last Wait: a point still in
// flight when its store closes fails with a persist error. A nil store
// detaches.
func (s *Scheduler) SetPointStore(ps PointStore) {
	s.mu.Lock()
	s.store = ps
	s.mu.Unlock()
}

// SetPointRunner installs (or, with nil, removes) a remote point
// executor: newly submitted points are handed to it — one goroutine per
// point, the runner is expected to do its own admission control —
// instead of fanning seed jobs over the local worker pool. The
// determinism contract is unchanged: futures resolve with the same
// bit-identical Points a local run produces. Install before the study
// drivers run.
func (s *Scheduler) SetPointRunner(r PointRunner) {
	s.mu.Lock()
	s.runner = r
	s.mu.Unlock()
}

// safeNotify delivers ev to fn, recovering observer panics so they
// cannot kill a worker goroutine. The first panic is reported once to
// stderr; later ones are dropped.
func (s *Scheduler) safeNotify(fn Observer, ev PointEvent) {
	if fn == nil {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			s.obsPanicOnce.Do(func() {
				fmt.Fprintf(os.Stderr, "core: observer panicked (event %s, point %s/%s): %v\n%s",
					ev.Kind, ev.Benchmark, ev.Mechanisms.Label(), r, debug.Stack())
			})
		}
	}()
	fn(ev)
}

// storeAdd persists a finished point to the attached result store, if
// any. The caller fails the point on error: a result that could not be
// made durable is never published as good.
func (s *Scheduler) storeAdd(k pointKey, p Point) error {
	s.mu.Lock()
	ps := s.store
	s.mu.Unlock()
	if ps == nil {
		return nil
	}
	return ps.Add(PointRecord{Benchmark: k.bench, Mechanisms: k.mech, Options: k.opts, Point: p})
}

// storeRestore fills e from the attached result store, if the point is
// there. Called by Submit with the scheduler lock held; it touches only
// e (not yet shared).
func (s *Scheduler) storeRestore(k pointKey, e *pointEntry) bool {
	if s.store == nil {
		return false
	}
	p, ok := s.store.Lookup(k.bench, k.mech, k.opts)
	if !ok {
		return false
	}
	e.point = p
	e.runs = p.Runs
	close(e.done)
	return true
}

// noteFailed counts a point that finished with an error.
func (s *Scheduler) noteFailed() {
	s.mu.Lock()
	s.failed++
	s.mu.Unlock()
}

// noteRetry counts one seed-level retry.
func (s *Scheduler) noteRetry() {
	s.mu.Lock()
	s.retries++
	s.mu.Unlock()
}

// NewScheduler returns a scheduler with its own empty cache running at
// most workers simulations concurrently; workers < 1 means one per CPU.
func NewScheduler(workers int) *Scheduler {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &Scheduler{target: workers, cache: make(map[pointKey]*pointEntry)}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Workers reports the current pool size.
func (s *Scheduler) Workers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.target
}

// grow raises the pool size to at least n workers. The pool never
// shrinks: for guaranteed-serial execution use NewScheduler(1).
func (s *Scheduler) grow(n int) {
	s.mu.Lock()
	if n > s.target {
		s.target = n
		s.spawnLocked()
	}
	s.mu.Unlock()
}

// spawnLocked starts workers up to the target pool size. Callers hold mu.
func (s *Scheduler) spawnLocked() {
	if len(s.queue) == 0 {
		return
	}
	for s.running < s.target {
		s.running++
		go s.worker()
	}
}

func (s *Scheduler) worker() {
	s.mu.Lock()
	for {
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.queue) == 0 { // closed and drained
			s.running--
			s.mu.Unlock()
			return
		}
		j := s.queue[0]
		s.queue = s.queue[1:]
		s.mu.Unlock()
		j.entry.runSeed(s, j.seed)
		s.mu.Lock()
	}
}

// Submit requests one data point. It never blocks on simulation work:
// the point's seed jobs are queued (or the cached entry is found) and a
// future is returned for collection via Wait. Invalid requests resolve
// immediately with the same errors Run reports. Progress events fire
// outside the scheduler lock: PointCached for cache hits, PointRestored
// for points served from the attached result store, PointStart for newly
// queued points, PointFinish when the last seed lands (invalid
// submissions fire PointFinish with the error directly).
func (s *Scheduler) Submit(bench string, m Mechanisms, o Options) *PointFuture {
	key := canonicalKey(bench, m, o)
	s.mu.Lock()
	s.requests++
	if e, ok := s.cache[key]; ok {
		obs := s.observer
		s.mu.Unlock()
		s.safeNotify(obs, PointEvent{Kind: PointCached, Benchmark: bench, Mechanisms: m, Options: key.opts, Seeds: o.Seeds})
		return &PointFuture{e}
	}
	lvl, lerr := audit.ParseLevel(o.CheckLevel)
	e := &pointEntry{
		bench: bench, mech: m, opts: key.opts,
		started: time.Now(), notify: s.observer, done: make(chan struct{}),
		timeout: o.PointTimeout, retries: o.MaxRetries, backoff: o.RetryBackoff,
		faultHook: s.faultHook, stateFault: s.stateFault,
		checkLevel: lvl, checkSet: o.CheckLevel != "",
	}
	if lerr == nil {
		// An invalid CheckLevel must not poison the cache: the field is
		// canonicalized out of the key, so a valid resubmission would
		// otherwise hit this failed entry.
		s.cache[key] = e
	}
	_, werr := workload.ByName(bench)
	kind := PointFinish
	switch {
	case o.Seeds < 1:
		e.err = fmt.Errorf("core: Seeds must be at least 1")
		s.failed++
		close(e.done)
	case lerr != nil:
		e.err = lerr
		s.failed++
		close(e.done)
	case werr != nil:
		e.err = werr
		s.failed++
		close(e.done)
	case s.storeRestore(key, e):
		s.fromStore++
		kind = PointRestored
	default:
		if s.closed {
			s.mu.Unlock()
			panic("core: Submit on closed Scheduler")
		}
		s.unique++
		if r := s.runner; r != nil {
			// Remote execution: the whole point runs through the lease
			// adapter; nothing touches the local pool.
			go e.runRemote(s, r)
			kind = PointStart
			break
		}
		if s.target < 1 {
			s.target = runtime.GOMAXPROCS(0)
		}
		s.seedRuns += uint64(o.Seeds)
		e.runs = make([]sim.Metrics, o.Seeds)
		e.pending = o.Seeds
		for i := 0; i < o.Seeds; i++ {
			s.queue = append(s.queue, seedJob{e, i})
		}
		s.spawnLocked()
		s.cond.Broadcast()
		kind = PointStart
	}
	s.mu.Unlock()
	ev := PointEvent{Kind: kind, Benchmark: bench, Mechanisms: m, Options: key.opts, Seeds: o.Seeds}
	switch kind {
	case PointFinish:
		ev.Err = e.err
	case PointRestored:
		ev.Point = &e.point
	}
	s.safeNotify(e.notify, ev)
	return &PointFuture{e}
}

// Close lets the workers exit once the queue drains. Futures already
// submitted still complete; submitting new work afterwards panics. It
// exists so tests with private schedulers do not leak parked goroutines.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// SchedulerStats counts cache effectiveness and pipeline health: how
// much simulation the memoized point cache and the result store avoided,
// and how many points failed despite isolation and retries.
type SchedulerStats struct {
	Requests    uint64 // Submit calls
	Unique      uint64 // distinct points actually simulated (locally or via the lease adapter)
	SeedRuns    uint64 // individual seed-level sim.Run jobs executed locally
	FromStore   uint64 // points served from the shared result store
	Failed      uint64 // points that finished with an error
	SeedRetries uint64 // retry attempts for retryable seed failures
}

// Cached returns how many requests were served from the in-process
// cache (result-store restores are counted separately in FromStore).
func (st SchedulerStats) Cached() uint64 {
	return st.Requests - st.Unique - st.FromStore
}

// Stats snapshots the scheduler's counters.
func (s *Scheduler) Stats() SchedulerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SchedulerStats{
		Requests: s.requests, Unique: s.unique, SeedRuns: s.seedRuns,
		FromStore: s.fromStore, Failed: s.failed, SeedRetries: s.retries,
	}
}

var (
	defaultOnce  sync.Once
	defaultSched *Scheduler
)

// DefaultScheduler returns the process-wide scheduler backing Run,
// MustRun and the package-level study drivers. Its pool starts at the
// first caller's worker count and grows if a later Options asks for
// more; it never shrinks, so use NewScheduler(1) when serial execution
// itself (not just serial-identical results) is required.
func DefaultScheduler() *Scheduler {
	defaultOnce.Do(func() {
		defaultSched = &Scheduler{cache: make(map[pointKey]*pointEntry)}
		defaultSched.cond = sync.NewCond(&defaultSched.mu)
	})
	return defaultSched
}

// sharedScheduler returns the default scheduler grown to o's workers.
func sharedScheduler(o Options) *Scheduler {
	s := DefaultScheduler()
	s.grow(o.workerCount())
	return s
}
