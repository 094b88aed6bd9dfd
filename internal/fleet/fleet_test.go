package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"cmpsim/internal/core"
	"cmpsim/internal/faultinject"
	"cmpsim/internal/sim"
)

// tinyOpts is a canonical option set for protocol tests with stub
// runners (nothing is actually simulated).
func tinyOpts() core.Options {
	return core.Options{Cores: 2, Seeds: 2, Warmup: 100, Measure: 100, BandwidthGBps: 10, L2MB: 1}
}

// simOpts is small enough for real end-to-end simulation tests.
func simOpts() core.Options {
	return core.Options{Cores: 2, Seeds: 2, Warmup: 100_000, Measure: 60_000, BandwidthGBps: 10, L2MB: 1}
}

// fakePoint builds a deterministic stand-in point for protocol tests.
func fakePoint(bench string, m core.Mechanisms, o core.Options) core.Point {
	runs := make([]sim.Metrics, o.Seeds)
	for i := range runs {
		runs[i] = sim.Metrics{Benchmark: bench, Label: m.Label(), Seed: int64(i), Cycles: float64(1000 + i)}
	}
	return core.Point{Benchmark: bench, Mechanisms: m, Runs: runs}
}

// callerFunc adapts a function (usually Coordinator.Handle) to Caller,
// letting worker loops run in-process with no transport at all.
type callerFunc func(Message) (Message, error)

func (f callerFunc) Call(m Message) (Message, error) { return f(m) }

func directCaller(c *Coordinator) Caller {
	return callerFunc(func(m Message) (Message, error) { return c.Handle(m), nil })
}

// fakeClock is an adjustable Now for lease/heartbeat expiry tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

type pointResult struct {
	p   core.Point
	err error
}

// runAsync starts RunPoint in the background and returns its result
// channel.
func runAsync(c *Coordinator, bench string, m core.Mechanisms, o core.Options) chan pointResult {
	ch := make(chan pointResult, 1)
	go func() {
		p, err := c.RunPoint(bench, m, o)
		ch <- pointResult{p, err}
	}()
	return ch
}

// awaitLease polls next on behalf of worker until a lease arrives.
func awaitLease(t *testing.T, c *Coordinator, worker string) Message {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp := c.Handle(Message{Type: MsgNext, Worker: worker})
		switch resp.Type {
		case MsgLease:
			return resp
		case MsgWait:
			time.Sleep(time.Millisecond)
		default:
			t.Fatalf("unexpected reply to next: %+v", resp)
		}
	}
	t.Fatal("no lease within 5s")
	return Message{}
}

// leaseResult builds the valid result message for a lease.
func leaseResult(t *testing.T, worker string, lease Message) Message {
	t.Helper()
	p := fakePoint(lease.Benchmark, *lease.Mechanisms, *lease.Options)
	msg, err := resultMessage(worker, lease.Lease, lease.Benchmark, *lease.Mechanisms, *lease.Options, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	return msg
}

func await(t *testing.T, ch chan pointResult) pointResult {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(10 * time.Second):
		t.Fatal("RunPoint did not resolve")
		return pointResult{}
	}
}

func TestLeaseResultHappyPath(t *testing.T) {
	c := NewCoordinator(Config{})
	defer c.Shutdown()
	o := tinyOpts()
	o.PointTimeout = time.Minute // scheduling-only: never leased
	o.CheckLevel = "shadow"
	ch := runAsync(c, "zeus", core.Compression, o)
	lease := awaitLease(t, c, "w1")
	if lease.Benchmark != "zeus" || *lease.Mechanisms != core.Compression {
		t.Fatalf("lease carries wrong identity: %+v", lease)
	}
	if lease.Options.PointTimeout != 0 || lease.Options.CheckLevel != "" {
		t.Fatalf("lease options are not canonical: %+v", lease.Options)
	}
	if resp := c.Handle(leaseResult(t, "w1", lease)); resp.Type != MsgOK {
		t.Fatalf("result rejected: %+v", resp)
	}
	r := await(t, ch)
	if r.err != nil {
		t.Fatal(r.err)
	}
	if len(r.p.Runs) != 2 || r.p.Benchmark != "zeus" {
		t.Fatalf("wrong point delivered: %+v", r.p)
	}
	st := c.Stats()
	if st.Completed != 1 || st.Requeues != 0 || len(st.Workers) != 1 || st.Workers[0].Results != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestHeartbeatLossRequeues(t *testing.T) {
	clock := newFakeClock()
	c := NewCoordinator(Config{Now: clock.Now, HeartbeatTimeout: 30 * time.Second})
	defer c.Shutdown()
	ch := runAsync(c, "zeus", core.Base, tinyOpts())
	first := awaitLease(t, c, "w1")

	// Heartbeats keep the lease alive…
	clock.Advance(20 * time.Second)
	if resp := c.Handle(Message{Type: MsgHeartbeat, Worker: "w1", Lease: first.Lease}); resp.Type != MsgOK {
		t.Fatalf("live heartbeat not acknowledged: %+v", resp)
	}
	clock.Advance(20 * time.Second)
	c.CheckExpired()
	if st := c.Stats(); st.Requeues != 0 {
		t.Fatalf("lease with fresh heartbeat requeued: %+v", st)
	}

	// …until they stop.
	clock.Advance(31 * time.Second)
	c.CheckExpired()
	if st := c.Stats(); st.Requeues != 1 || st.Expired != 1 {
		t.Fatalf("heartbeat loss not requeued: %+v", st)
	}

	// The stale lease is cancelled if the worker beats again.
	if resp := c.Handle(Message{Type: MsgHeartbeat, Worker: "w1", Lease: first.Lease}); resp.Type != MsgCancel {
		t.Fatalf("stale heartbeat not cancelled: %+v", resp)
	}

	second := awaitLease(t, c, "w2")
	if second.Lease == first.Lease {
		t.Fatal("requeued point reissued under the same lease id")
	}
	c.Handle(leaseResult(t, "w2", second))
	if r := await(t, ch); r.err != nil {
		t.Fatal(r.err)
	}
}

func TestLeaseLifetimeExpires(t *testing.T) {
	clock := newFakeClock()
	c := NewCoordinator(Config{Now: clock.Now, HeartbeatTimeout: 30 * time.Second, LeaseTimeout: 100 * time.Second})
	defer c.Shutdown()
	ch := runAsync(c, "zeus", core.Base, tinyOpts())
	lease := awaitLease(t, c, "w1")
	// A wedged worker heartbeats forever; the lease lifetime still caps it.
	for i := 0; i < 5; i++ {
		clock.Advance(25 * time.Second)
		c.Handle(Message{Type: MsgHeartbeat, Worker: "w1", Lease: lease.Lease})
		c.CheckExpired()
	}
	st := c.Stats()
	if st.Requeues != 1 || st.Expired != 1 {
		t.Fatalf("lease lifetime not enforced: %+v", st)
	}
	second := awaitLease(t, c, "w2")
	c.Handle(leaseResult(t, "w2", second))
	if r := await(t, ch); r.err != nil {
		t.Fatal(r.err)
	}
}

func TestDuplicateResultIdempotent(t *testing.T) {
	c := NewCoordinator(Config{})
	defer c.Shutdown()
	ch := runAsync(c, "zeus", core.Base, tinyOpts())
	lease := awaitLease(t, c, "w1")
	msg := leaseResult(t, "w1", lease)
	if resp := c.Handle(msg); resp.Type != MsgOK {
		t.Fatalf("first result rejected: %+v", resp)
	}
	if resp := c.Handle(msg); resp.Type != MsgOK {
		t.Fatalf("duplicate result not acknowledged: %+v", resp)
	}
	r := await(t, ch)
	if r.err != nil {
		t.Fatal(r.err)
	}
	st := c.Stats()
	if st.Completed != 1 || st.Duplicates != 1 {
		t.Fatalf("duplicate accounting: %+v", st)
	}
}

func TestLateResultFromPresumedDeadWorkerAccepted(t *testing.T) {
	clock := newFakeClock()
	c := NewCoordinator(Config{Now: clock.Now, HeartbeatTimeout: 30 * time.Second})
	defer c.Shutdown()
	ch := runAsync(c, "zeus", core.Base, tinyOpts())
	first := awaitLease(t, c, "w1")
	clock.Advance(31 * time.Second)
	c.CheckExpired() // w1 presumed dead, point requeued
	second := awaitLease(t, c, "w2")
	// w1 was alive after all and reports under its stale lease: the
	// result is deterministic, so it is accepted.
	if resp := c.Handle(leaseResult(t, "w1", first)); resp.Type != MsgOK {
		t.Fatalf("late result rejected: %+v", resp)
	}
	if r := await(t, ch); r.err != nil {
		t.Fatal(r.err)
	}
	// w2's now-redundant result is a counted duplicate.
	if resp := c.Handle(leaseResult(t, "w2", second)); resp.Type != MsgOK {
		t.Fatalf("redundant result not acknowledged: %+v", resp)
	}
	st := c.Stats()
	if st.Completed != 1 || st.Duplicates != 1 {
		t.Fatalf("late-result accounting: %+v", st)
	}
}

func TestMalformedResultRequeues(t *testing.T) {
	c := NewCoordinator(Config{})
	defer c.Shutdown()
	ch := runAsync(c, "zeus", core.Base, tinyOpts())
	lease := awaitLease(t, c, "w1")
	msg := leaseResult(t, "w1", lease)
	msg.CRC ^= 0xDEADBEEF // transport corruption
	if resp := c.Handle(msg); resp.Type != MsgError {
		t.Fatalf("corrupt result not rejected: %+v", resp)
	}
	st := c.Stats()
	if st.Malformed != 1 || st.Requeues != 1 {
		t.Fatalf("malformed accounting: %+v", st)
	}
	second := awaitLease(t, c, "w1")
	c.Handle(leaseResult(t, "w1", second))
	if r := await(t, ch); r.err != nil {
		t.Fatal(r.err)
	}
}

func TestResultKeyMismatchRejected(t *testing.T) {
	c := NewCoordinator(Config{})
	defer c.Shutdown()
	chA := runAsync(c, "zeus", core.Base, tinyOpts())
	leaseA := awaitLease(t, c, "w1")
	// A structurally valid record for a DIFFERENT point must not satisfy
	// this lease.
	wrong := leaseResult(t, "w1", Message{
		Type: MsgLease, Lease: leaseA.Lease, Benchmark: "apache",
		Mechanisms: leaseA.Mechanisms, Options: leaseA.Options,
	})
	if resp := c.Handle(wrong); resp.Type != MsgError || !strings.Contains(resp.Error, "does not match lease") {
		t.Fatalf("mismatched record accepted: %+v", resp)
	}
	second := awaitLease(t, c, "w1")
	c.Handle(leaseResult(t, "w1", second))
	if r := await(t, chA); r.err != nil {
		t.Fatal(r.err)
	}
}

func TestIdenticalFailuresDegradeToFailed(t *testing.T) {
	c := NewCoordinator(Config{MaxPointFailures: 2, MaxRequeues: 10})
	defer c.Shutdown()
	ch := runAsync(c, "zeus", core.Base, tinyOpts())
	fail := func(worker string, lease Message) {
		c.Handle(Message{Type: MsgResult, Worker: worker, Lease: lease.Lease,
			Error: "panic: index out of range", Reason: core.ReasonPanic})
	}
	fail("w1", awaitLease(t, c, "w1"))
	if st := c.Stats(); st.Failed != 0 || st.Requeues != 1 {
		t.Fatalf("first failure should requeue, not fail: %+v", st)
	}
	fail("w2", awaitLease(t, c, "w2"))
	r := await(t, ch)
	if r.err == nil {
		t.Fatal("point with two identical failures did not fail")
	}
	var pe *core.PointError
	if !errors.As(r.err, &pe) || pe.Reason != core.ReasonPanic {
		t.Fatalf("failure lost its classification: %v", r.err)
	}
	if st := c.Stats(); st.Failed != 1 {
		t.Fatalf("failed accounting: %+v", st)
	}
}

func TestSameWorkerFailuresDoNotDegrade(t *testing.T) {
	// One flaky worker failing the same point repeatedly must not count
	// as N distinct confirmations.
	c := NewCoordinator(Config{MaxPointFailures: 2, MaxRequeues: 2})
	defer c.Shutdown()
	ch := runAsync(c, "zeus", core.Base, tinyOpts())
	for i := 0; i < 2; i++ {
		lease := awaitLease(t, c, "w1")
		c.Handle(Message{Type: MsgResult, Worker: "w1", Lease: lease.Lease,
			Error: "panic: boom", Reason: core.ReasonPanic})
	}
	if st := c.Stats(); st.Failed != 0 {
		t.Fatalf("same-worker failures degraded the point: %+v", st)
	}
	// A healthy worker still completes it.
	c.Handle(leaseResult(t, "w2", awaitLease(t, c, "w2")))
	if r := await(t, ch); r.err != nil {
		t.Fatal(r.err)
	}
}

func TestRequeueBudgetExhausts(t *testing.T) {
	clock := newFakeClock()
	c := NewCoordinator(Config{Now: clock.Now, MaxRequeues: 2, HeartbeatTimeout: 10 * time.Second})
	defer c.Shutdown()
	ch := runAsync(c, "zeus", core.Base, tinyOpts())
	for i := 0; i < 3; i++ {
		awaitLease(t, c, fmt.Sprintf("w%d", i))
		clock.Advance(11 * time.Second)
		c.CheckExpired()
	}
	r := await(t, ch)
	if r.err == nil || !strings.Contains(r.err.Error(), "requeue budget") {
		t.Fatalf("exhausted budget did not fail the point: %v", r.err)
	}
}

func TestWorkerLostRequeues(t *testing.T) {
	c := NewCoordinator(Config{})
	defer c.Shutdown()
	ch := runAsync(c, "zeus", core.Base, tinyOpts())
	awaitLease(t, c, "w1")
	c.WorkerLost("w1")
	st := c.Stats()
	if st.Lost != 1 || st.Requeues != 1 {
		t.Fatalf("worker loss accounting: %+v", st)
	}
	c.Handle(leaseResult(t, "w2", awaitLease(t, c, "w2")))
	if r := await(t, ch); r.err != nil {
		t.Fatal(r.err)
	}
}

func TestStoreServesWithoutLease(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	o := core.CanonicalOptions(tinyOpts())
	p := fakePoint("zeus", core.Base, o)
	if err := st.Add(core.NewPointRecord("zeus", core.Base, o, p)); err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(Config{Store: st})
	defer c.Shutdown()
	// Resolves without any worker existing at all.
	got, err := c.RunPoint("zeus", core.Base, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Runs) != o.Seeds {
		t.Fatalf("stored point mangled: %+v", got)
	}
	if st := c.Stats(); st.FromStore != 1 || st.Completed != 1 {
		t.Fatalf("store accounting: %+v", st)
	}
}

func TestSchedulerStoreNeverResimulates(t *testing.T) {
	dir := t.TempDir()
	// First scheduler simulates (stub runner) and persists via the store.
	st1, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s1 := core.NewScheduler(1)
	defer s1.Close()
	s1.SetPointStore(st1)
	s1.SetPointRunner(func(bench string, m core.Mechanisms, o core.Options) (core.Point, error) {
		return fakePoint(bench, m, o), nil
	})
	p1, err := s1.Submit("zeus", core.Compression, tinyOpts()).Wait()
	if err != nil {
		t.Fatal(err)
	}
	st1.Close()

	// Second scheduler must restore, never simulate.
	st2, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Loaded() != 1 {
		t.Fatalf("store loaded %d records, want 1", st2.Loaded())
	}
	s2 := core.NewScheduler(1)
	defer s2.Close()
	s2.SetPointStore(st2)
	s2.SetPointRunner(func(bench string, m core.Mechanisms, o core.Options) (core.Point, error) {
		t.Errorf("point %s/%s re-simulated despite store record", bench, m.Label())
		return core.Point{}, errors.New("must not run")
	})
	p2, err := s2.Submit("zeus", core.Compression, tinyOpts()).Wait()
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := json.Marshal(p1)
	b2, _ := json.Marshal(p2)
	if string(b1) != string(b2) {
		t.Fatalf("restored point not bit-identical:\n%s\n%s", b1, b2)
	}
	if stats := s2.Stats(); stats.FromStore != 1 || stats.Unique != 0 {
		t.Fatalf("scheduler stats: %+v", stats)
	}
}

// TestStudyStoreFoundAfterClose pins persist-before-publish end to end
// on real simulations: a study's store is closed the moment its last
// Wait returns, with no scheduler barrier, and must still hold
// every point. Resuming over that store, the full study reproduces a
// fresh run's rows bit-identically while simulating only the points the
// interrupted run never reached.
func TestStudyStoreFoundAfterClose(t *testing.T) {
	if testing.Short() {
		t.Skip("full study round trip")
	}
	o := simOpts()
	benches := []string{"zeus", "mgrid"}
	dir := t.TempDir()

	fresh := func() []core.CompressionRow {
		s := core.NewScheduler(2)
		defer s.Close()
		return s.CompressionStudy(benches, o)
	}()

	// Interrupted run: only zeus's points reach the store.
	st1, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s1 := core.NewScheduler(2)
	defer s1.Close()
	s1.SetPointStore(st1)
	s1.CompressionStudy(benches[:1], o)
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}
	st := s1.Stats()
	if st.Failed != 0 {
		t.Fatalf("interrupted run failed points: %+v", st)
	}

	st2, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Loaded() != int(st.Unique) {
		t.Fatalf("store loaded %d records after close, want all %d unique points", st2.Loaded(), st.Unique)
	}
	s2 := core.NewScheduler(2)
	defer s2.Close()
	s2.SetPointStore(st2)
	resumed := s2.CompressionStudy(benches, o)
	if !reflect.DeepEqual(resumed, fresh) {
		t.Fatalf("resumed study differs from fresh run:\nfresh   %+v\nresumed %+v", fresh, resumed)
	}
	if rs := s2.Stats(); rs.FromStore != st.Unique || rs.Unique != st.Unique {
		t.Fatalf("resume stats = %+v (want %d zeus points from store, %d mgrid points simulated)", rs, st.Unique, st.Unique)
	}
}

// TestStoreRefusalFailsPointResumably: a result the coordinator cannot
// persist must not be published as done. The point fails with a
// "persist:" error, and because that failure is not journaled, a
// restarted coordinator accepts the same result and stores it.
func TestStoreRefusalFailsPointResumably(t *testing.T) {
	dir := t.TempDir()
	st1, j1 := openRecoveryPair(t, dir)
	st1.Close() // a closed store refuses every Add
	c1 := NewCoordinator(Config{Store: st1, Journal: j1})

	ch := runAsync(c1, "zeus", core.Base, tinyOpts())
	lease := awaitLease(t, c1, "w0")
	c1.Handle(leaseResult(t, "w0", lease))
	if r := await(t, ch); r.err == nil || !strings.Contains(r.err.Error(), "persist:") {
		t.Fatalf("unpersisted result published: err %v", r.err)
	}
	crashCoordinator(c1, j1, nil)

	st2, j2 := openRecoveryPair(t, dir)
	defer st2.Close()
	defer j2.Close()
	c2 := NewCoordinator(Config{Store: st2, Journal: j2})
	defer c2.Shutdown()
	ch2 := runAsync(c2, "zeus", core.Base, tinyOpts())
	c2.Handle(leaseResult(t, "w0", lease))
	if r := await(t, ch2); r.err != nil {
		t.Fatalf("restarted coordinator kept the persist failure: %v", r.err)
	}
	if _, ok := st2.Lookup("zeus", core.Base, tinyOpts()); !ok {
		t.Fatal("store lacks the point after the retry")
	}
}

// startPipeWorker wires an in-process RunWorker to the coordinator over
// real pipes, so worker death closes the stream exactly like a process
// exit would.
func startPipeWorker(t *testing.T, c *Coordinator, cfg WorkerConfig) chan error {
	t.Helper()
	reqR, reqW := io.Pipe()
	respR, respW := io.Pipe()
	go c.ServePipe(reqR, respW)
	errCh := make(chan error, 1)
	go func() {
		err := RunWorker(cfg, NewPipeCaller(respR, reqW))
		reqW.Close() // the "process" exits: coordinator sees EOF
		respR.Close()
		errCh <- err
	}()
	return errCh
}

// TestPipeFleetKillOneWorkerBitIdentical is the acceptance scenario:
// a 2-worker pipe fleet, one worker deterministically killed mid-sweep,
// must deliver points bit-identical to plain single-process simulation,
// with the killed worker's in-flight lease requeued and completed.
// This one runs the real simulator.
func TestPipeFleetKillOneWorkerBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation; skipped with -short")
	}
	opts := simOpts()
	benches := []string{"zeus"}
	mechs := []core.Mechanisms{core.Base, core.Compression}

	// Reference: plain local scheduler.
	ref := core.NewScheduler(0)
	defer ref.Close()
	want := make(map[string][]byte)
	for _, b := range benches {
		for _, m := range mechs {
			p, err := ref.Submit(b, m, opts).Wait()
			if err != nil {
				t.Fatal(err)
			}
			buf, _ := json.Marshal(p)
			want[b+"/"+m.Label()] = buf
		}
	}

	// Fleet: coordinator + 2 pipe workers, w0 killed before its first
	// result report.
	c := NewCoordinator(Config{})
	inj, err := faultinject.Parse("kind=kill,worker=w0,msg=result,nth=1")
	if err != nil {
		t.Fatal(err)
	}
	simRunner := func(sched *core.Scheduler) core.PointRunner {
		return func(bench string, m core.Mechanisms, o core.Options) (core.Point, error) {
			return sched.Submit(bench, m, o).Wait()
		}
	}
	ws0 := core.NewScheduler(0)
	defer ws0.Close()
	ws1 := core.NewScheduler(0)
	defer ws1.Close()
	err0 := startPipeWorker(t, c, WorkerConfig{ID: "w0", Runner: simRunner(ws0), Fault: inj, PollInterval: 5 * time.Millisecond})
	err1 := startPipeWorker(t, c, WorkerConfig{ID: "w1", Runner: simRunner(ws1), PollInterval: 5 * time.Millisecond})

	sched := core.NewScheduler(0)
	defer sched.Close()
	sched.SetPointRunner(c.RunPoint)
	futures := make(map[string]*core.PointFuture)
	for _, b := range benches {
		for _, m := range mechs {
			futures[b+"/"+m.Label()] = sched.Submit(b, m, opts)
		}
	}
	for key, f := range futures {
		p, err := f.Wait()
		if err != nil {
			t.Fatalf("%s failed through the fleet: %v", key, err)
		}
		buf, _ := json.Marshal(p)
		if string(buf) != string(want[key]) {
			t.Errorf("%s: fleet point is not bit-identical to local simulation", key)
		}
	}
	c.Shutdown()
	if err := <-err0; !errors.Is(err, ErrKilled) {
		t.Errorf("w0 should have been killed: %v", err)
	}
	if err := <-err1; err != nil {
		t.Errorf("w1 exited dirty: %v", err)
	}
	st := c.Stats()
	if st.Lost != 1 {
		t.Errorf("killed worker not declared lost: %+v", st)
	}
	if st.Requeues < 1 {
		t.Errorf("killed worker's lease not requeued: %+v", st)
	}
	if st.Completed != len(want) {
		t.Errorf("completed %d of %d points: %+v", st.Completed, len(want), st)
	}
}

// TestWorkerTransportFaultMatrix drives full worker loops (stub
// runners) against the coordinator under each transport fault kind and
// checks the sweep still converges with the right accounting.
func TestWorkerTransportFaultMatrix(t *testing.T) {
	cases := []struct {
		name  string
		rules string
		cfg   Config
		check func(t *testing.T, st Stats)
	}{
		{
			name:  "duplicated result",
			rules: "kind=dup,msg=result,nth=1",
			check: func(t *testing.T, st Stats) {
				if st.Duplicates != 1 {
					t.Errorf("duplicates = %d, want 1: %+v", st.Duplicates, st)
				}
			},
		},
		{
			name:  "corrupted result",
			rules: "kind=corruptmsg,msg=result,nth=1",
			check: func(t *testing.T, st Stats) {
				if st.Malformed != 1 || st.Requeues != 1 {
					t.Errorf("malformed/requeues = %d/%d, want 1/1: %+v", st.Malformed, st.Requeues, st)
				}
			},
		},
		{
			name:  "dropped result",
			rules: "kind=drop,msg=result,nth=1",
			cfg:   Config{HeartbeatTimeout: 50 * time.Millisecond, ExpiryInterval: 10 * time.Millisecond},
			check: func(t *testing.T, st Stats) {
				if st.Expired < 1 || st.Requeues < 1 {
					t.Errorf("dropped result never expired: %+v", st)
				}
			},
		},
		{
			name:  "dropped lease",
			rules: "kind=drop,msg=lease,nth=1",
			cfg:   Config{HeartbeatTimeout: 50 * time.Millisecond, ExpiryInterval: 10 * time.Millisecond},
			check: func(t *testing.T, st Stats) {
				if st.Requeues < 1 {
					t.Errorf("dropped lease never requeued: %+v", st)
				}
			},
		},
		{
			name:  "delayed result",
			rules: "kind=delay,msg=result,delay=20ms,nth=1",
			check: func(t *testing.T, st Stats) {
				if st.Completed != 1 || st.Requeues != 0 {
					t.Errorf("delay should be harmless: %+v", st)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCoordinator(tc.cfg)
			inj, err := faultinject.Parse(tc.rules)
			if err != nil {
				t.Fatal(err)
			}
			errCh := startPipeWorker(t, c, WorkerConfig{
				ID: "w0", Fault: inj, PollInterval: 2 * time.Millisecond,
				Runner: func(bench string, m core.Mechanisms, o core.Options) (core.Point, error) {
					return fakePoint(bench, m, o), nil
				},
			})
			r := await(t, runAsync(c, "zeus", core.Base, tinyOpts()))
			if r.err != nil {
				t.Fatalf("sweep did not converge: %v", r.err)
			}
			c.Shutdown()
			if err := <-errCh; err != nil {
				t.Errorf("worker exited dirty: %v", err)
			}
			st := c.Stats()
			if st.Completed != 1 {
				t.Errorf("point not completed: %+v", st)
			}
			tc.check(t, st)
		})
	}
}

func TestWorkerPanicReportedAndClassified(t *testing.T) {
	c := NewCoordinator(Config{MaxPointFailures: 1})
	errCh := startPipeWorker(t, c, WorkerConfig{
		ID: "w0", PollInterval: 2 * time.Millisecond,
		Runner: func(bench string, m core.Mechanisms, o core.Options) (core.Point, error) {
			panic("simulated worker bug")
		},
	})
	r := await(t, runAsync(c, "zeus", core.Base, tinyOpts()))
	if r.err == nil {
		t.Fatal("panicking runner produced a point")
	}
	var pe *core.PointError
	if !errors.As(r.err, &pe) || pe.Reason != core.ReasonPanic {
		t.Fatalf("panic not classified: %v", r.err)
	}
	c.Shutdown()
	if err := <-errCh; err != nil {
		t.Errorf("worker should survive its runner's panic: %v", err)
	}
}

func TestHTTPTransport(t *testing.T) {
	c := NewCoordinator(Config{})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	var werr error
	go func() {
		defer wg.Done()
		werr = RunWorker(WorkerConfig{
			ID: "hw0", PollInterval: 2 * time.Millisecond,
			Runner: func(bench string, m core.Mechanisms, o core.Options) (core.Point, error) {
				return fakePoint(bench, m, o), nil
			},
		}, &HTTPCaller{URL: srv.URL})
	}()
	r := await(t, runAsync(c, "zeus", core.AdaptiveCompr, tinyOpts()))
	if r.err != nil {
		t.Fatal(r.err)
	}
	c.Shutdown()
	wg.Wait()
	if werr != nil {
		t.Fatalf("HTTP worker exited dirty: %v", werr)
	}
	st := c.Stats()
	if st.Completed != 1 || len(st.Workers) != 1 || st.Workers[0].Worker != "hw0" {
		t.Fatalf("HTTP stats: %+v", st)
	}
}

func TestCoordinatorAndWorkerStoreAgree(t *testing.T) {
	// A point completed through the fleet lands in the store under the
	// exact key a fresh RunPoint computes (shared canonical identity).
	dir := t.TempDir()
	st, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	c := NewCoordinator(Config{Store: st})
	errCh := startPipeWorker(t, c, WorkerConfig{
		ID: "w0", PollInterval: 2 * time.Millisecond,
		Runner: func(bench string, m core.Mechanisms, o core.Options) (core.Point, error) {
			return fakePoint(bench, m, o), nil
		},
	})
	r := await(t, runAsync(c, "zeus", core.Prefetch, tinyOpts()))
	if r.err != nil {
		t.Fatal(r.err)
	}
	c.Shutdown()
	<-errCh
	// Options with different scheduling knobs must still hit the record.
	noisy := tinyOpts()
	noisy.PointTimeout = time.Minute
	noisy.CheckLevel = "shadow"
	if _, ok := st.Lookup("zeus", core.Prefetch, noisy); !ok {
		t.Fatal("stored point not found under the canonical key")
	}
	c2 := NewCoordinator(Config{Store: st})
	defer c2.Shutdown()
	if _, err := c2.RunPoint("zeus", core.Prefetch, noisy); err != nil {
		t.Fatal(err)
	}
	if stats := c2.Stats(); stats.FromStore != 1 {
		t.Fatalf("second coordinator did not reuse the store: %+v", stats)
	}
}
