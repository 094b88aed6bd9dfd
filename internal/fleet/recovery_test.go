// In-process crash-recovery matrix: a coordinator with a journal and a
// store is driven through the protocol, abandoned mid-sweep like a
// crashed process (no Shutdown, no cleanup), and a second coordinator
// opened over the same directory must reconstruct the exact state —
// stored points never re-simulated, outstanding leases still
// resolvable, requeue budgets and failure signatures intact, permanent
// failures permanent.
package fleet

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"cmpsim/internal/core"
)

// Entries returns how many intact events the open scan replayed.
func (j *Journal) Entries() int {
	if j == nil {
		return 0
	}
	return j.rec.entries
}

// crashCoordinator abandons c the way a SIGKILL would: the journal's
// file handle is released (the process is gone) but nothing is failed,
// flushed, truncated, or shut down.
func crashCoordinator(c *Coordinator, j *Journal, st *Store) {
	j.Close()
	if st != nil {
		st.Close()
	}
}

// waitForPoints blocks until the coordinator tracks n points (RunPoint
// enqueues from goroutines, so submission is observed, not assumed).
func waitForPoints(t *testing.T, c *Coordinator, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Points < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d points submitted", c.Stats().Points, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func openRecoveryPair(t *testing.T, dir string) (*Store, *Journal) {
	t.Helper()
	st, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st, j
}

// TestRecoveryMatrix walks one crash through every recovered-point
// class at once: done-in-store, leased in-flight, pending, pending
// with spent budget and a failure signature, and permanently failed.
func TestRecoveryMatrix(t *testing.T) {
	dir := t.TempDir()
	st1, j1 := openRecoveryPair(t, dir)
	c1 := NewCoordinator(Config{Store: st1, Journal: j1, MaxPointFailures: 2})

	// pA: completed and stored before the crash.
	chA := runAsync(c1, "zeus", core.Base, tinyOpts())
	leaseA := awaitLease(t, c1, "w0")
	if resp := c1.Handle(leaseResult(t, "w0", leaseA)); resp.Type != MsgOK {
		t.Fatalf("result A rejected: %+v", resp)
	}
	rA := await(t, chA)
	if rA.err != nil {
		t.Fatal(rA.err)
	}

	// pD: permanently failed (two distinct workers, same signature).
	chD := runAsync(c1, "zeus", core.Prefetch, tinyOpts())
	leaseD := awaitLease(t, c1, "w0")
	c1.Handle(Message{Type: MsgResult, Worker: "w0", Lease: leaseD.Lease,
		Error: "broken point", Reason: core.ReasonError})
	leaseD2 := awaitLease(t, c1, "w1")
	c1.Handle(Message{Type: MsgResult, Worker: "w1", Lease: leaseD2.Lease,
		Error: "broken point", Reason: core.ReasonError})
	if rD := await(t, chD); rD.err == nil {
		t.Fatal("pD should have failed permanently")
	}

	// pE: failed once on w0 (requeued, budget spent, signature filed).
	runAsync(c1, "zeus", core.AdaptiveCompr, tinyOpts())
	leaseE := awaitLease(t, c1, "w0")
	c1.Handle(Message{Type: MsgResult, Worker: "w0", Lease: leaseE.Lease,
		Error: "flaky point", Reason: core.ReasonError})

	// pB: leased and in flight at crash time. It drains the queue first
	// (pE was requeued ahead of it), so lease pE to w1 and leave both
	// outstanding; pB is the one whose result arrives after recovery.
	leaseE2 := awaitLease(t, c1, "w1")
	if leaseE2.Benchmark != "zeus" || leaseE2.Mechanisms.Label() != core.AdaptiveCompr.Label() {
		t.Fatalf("expected pE release, got %s/%s", leaseE2.Benchmark, leaseE2.Mechanisms.Label())
	}
	runAsync(c1, "zeus", core.Compression, tinyOpts())
	leaseB := awaitLease(t, c1, "w0")

	// pC: queued, never leased. A never-granted point leaves no journal
	// trace on purpose — the driver re-submits every point on restart,
	// so only state that cannot be re-derived (leases, budgets, failure
	// signatures, verdicts) needs durability.
	runAsync(c1, "art", core.Base, tinyOpts())
	waitForPoints(t, c1, 5)

	crashCoordinator(c1, j1, st1)

	// Restart over the same directory.
	st2, j2 := openRecoveryPair(t, dir)
	defer st2.Close()
	defer j2.Close()
	c2 := NewCoordinator(Config{Store: st2, Journal: j2, MaxPointFailures: 2})

	stats := c2.Stats()
	if stats.Recovered != 4 {
		t.Fatalf("recovered %d points, want 4 (pA, pB, pD, pE): %+v", stats.Recovered, stats)
	}
	if stats.FromStore != 1 {
		t.Fatalf("fromStore = %d, want 1 (pA): %+v", stats.FromStore, stats)
	}

	// pA resolves instantly from the store — no lease, no simulation.
	pA2, err := c2.RunPoint("zeus", core.Base, tinyOpts())
	if err != nil {
		t.Fatalf("recovered stored point errored: %v", err)
	}
	if len(pA2.Runs) != tinyOpts().Seeds {
		t.Fatalf("recovered point malformed: %+v", pA2)
	}

	// pD stays permanently failed; the recovered error keeps its shape.
	_, err = c2.RunPoint("zeus", core.Prefetch, tinyOpts())
	var pe *core.PointError
	if !errors.As(err, &pe) || !strings.Contains(err.Error(), "2 workers reported") {
		t.Fatalf("recovered failure lost its cause: %v", err)
	}

	// pB's worker survived the outage: its result, reported under the
	// pre-crash lease id, is accepted and resolves the recovered point.
	chB2 := runAsync(c2, "zeus", core.Compression, tinyOpts())
	if resp := c2.Handle(leaseResult(t, "w0", leaseB)); resp.Type != MsgOK {
		t.Fatalf("late result under recovered lease rejected: %+v", resp)
	}
	if rB := await(t, chB2); rB.err != nil {
		t.Fatalf("recovered lease did not resolve: %v", rB.err)
	}

	// pE carries its pre-crash failure signature: one more failure with
	// the same signature from a different worker makes it permanent
	// (MaxPointFailures=2), even though this coordinator never saw w0.
	chE2 := runAsync(c2, "zeus", core.AdaptiveCompr, tinyOpts())
	if resp := c2.Handle(Message{Type: MsgResult, Worker: "w2", Lease: leaseE2.Lease,
		Error: "flaky point", Reason: core.ReasonError}); resp.Type != MsgOK {
		t.Fatalf("failure report rejected: %+v", resp)
	}
	rE := await(t, chE2)
	if rE.err == nil || !strings.Contains(rE.err.Error(), "2 workers reported") {
		t.Fatalf("failure signatures did not survive the restart: %v", rE.err)
	}

	// pC went back in the queue; a fresh worker completes it.
	chC2 := runAsync(c2, "art", core.Base, tinyOpts())
	leaseC := awaitLease(t, c2, "w3")
	if leaseC.Benchmark != "art" {
		t.Fatalf("expected pC lease, got %s/%s", leaseC.Benchmark, leaseC.Mechanisms.Label())
	}
	c2.Handle(leaseResult(t, "w3", leaseC))
	if rC := await(t, chC2); rC.err != nil {
		t.Fatal(rC.err)
	}
	c2.Shutdown()
}

// TestRequeueBudgetSurvivesRestart pins that a point's requeue count
// keeps accruing across a crash instead of resetting: budget spent
// before the crash still counts after it.
func TestRequeueBudgetSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	st1, j1 := openRecoveryPair(t, dir)
	c1 := NewCoordinator(Config{Store: st1, Journal: j1, MaxRequeues: 2})

	runAsync(c1, "zeus", core.Base, tinyOpts())
	for i := 0; i < 2; i++ {
		lease := awaitLease(t, c1, "w0")
		// A malformed result burns the lease and requeues the point.
		resp := c1.Handle(Message{Type: MsgResult, Worker: "w0", Lease: lease.Lease,
			Data: []byte("{"), CRC: 0})
		if resp.Type != MsgError {
			t.Fatalf("malformed result not rejected: %+v", resp)
		}
	}
	crashCoordinator(c1, j1, st1)

	st2, j2 := openRecoveryPair(t, dir)
	defer st2.Close()
	defer j2.Close()
	c2 := NewCoordinator(Config{Store: st2, Journal: j2, MaxRequeues: 2})
	defer c2.Shutdown()

	ch := runAsync(c2, "zeus", core.Base, tinyOpts())
	lease := awaitLease(t, c2, "w1")
	c2.Handle(Message{Type: MsgResult, Worker: "w1", Lease: lease.Lease,
		Data: []byte("{"), CRC: 0})
	r := await(t, ch)
	if r.err == nil || !strings.Contains(r.err.Error(), "requeue budget exhausted after 3 attempts") {
		t.Fatalf("budget restarted across the crash: %v", r.err)
	}
}

// TestCleanShutdownTruncatesJournal pins the lifecycle boundary: a
// sweep that finishes every point resets its journal, so the next run
// replays nothing; a crashed (abandoned) sweep keeps its journal.
func TestCleanShutdownTruncatesJournal(t *testing.T) {
	dir := t.TempDir()
	st1, j1 := openRecoveryPair(t, dir)
	c1 := NewCoordinator(Config{Store: st1, Journal: j1})

	ch := runAsync(c1, "zeus", core.Base, tinyOpts())
	lease := awaitLease(t, c1, "w0")
	c1.Handle(leaseResult(t, "w0", lease))
	if r := await(t, ch); r.err != nil {
		t.Fatal(r.err)
	}
	c1.Shutdown()
	j1.Close()
	st1.Close()

	st2, j2 := openRecoveryPair(t, dir)
	defer st2.Close()
	defer j2.Close()
	if j2.Entries() != 0 {
		t.Fatalf("clean shutdown left %d journal entries", j2.Entries())
	}
	c2 := NewCoordinator(Config{Store: st2, Journal: j2})
	defer c2.Shutdown()
	if stats := c2.Stats(); stats.Recovered != 0 {
		t.Fatalf("recovered %d points from a truncated journal", stats.Recovered)
	}
	// The store still serves the finished point.
	if _, err := c2.RunPoint("zeus", core.Base, tinyOpts()); err != nil {
		t.Fatal(err)
	}
}

// TestDrainKeepsSweepResumable drives the drain state machine: after
// Drain, next returns done, in-flight results are still accepted,
// leftover points fail with ReasonDrained — and because drain failures
// are never journaled as permanent, a restart resumes exactly the
// abandoned points.
func TestDrainKeepsSweepResumable(t *testing.T) {
	dir := t.TempDir()
	st1, j1 := openRecoveryPair(t, dir)
	c1 := NewCoordinator(Config{Store: st1, Journal: j1})

	chA := runAsync(c1, "zeus", core.Base, tinyOpts())
	leaseA := awaitLease(t, c1, "w0")
	chB := runAsync(c1, "zeus", core.Compression, tinyOpts())
	waitForPoints(t, c1, 2)

	c1.Drain()
	if resp := c1.Handle(Message{Type: MsgNext, Worker: "w1"}); resp.Type != MsgDone {
		t.Fatalf("draining coordinator still leases: %+v", resp)
	}
	// A point first requested mid-drain fails immediately.
	if _, err := c1.RunPoint("art", core.Base, tinyOpts()); err == nil {
		t.Fatal("draining coordinator accepted new work")
	} else {
		var pe *core.PointError
		if !errors.As(err, &pe) || pe.Reason != core.ReasonDrained {
			t.Fatalf("drain failure misclassified: %v", err)
		}
	}
	// The in-flight lease still lands.
	if resp := c1.Handle(leaseResult(t, "w0", leaseA)); resp.Type != MsgOK {
		t.Fatalf("in-flight result rejected during drain: %+v", resp)
	}
	if rA := await(t, chA); rA.err != nil {
		t.Fatal(rA.err)
	}

	abandoned := c1.DrainAndWait(time.Second)
	if abandoned != 1 {
		t.Fatalf("abandoned %d points, want 1 (pB)", abandoned)
	}
	rB := await(t, chB)
	var pe *core.PointError
	if !errors.As(rB.err, &pe) || pe.Reason != core.ReasonDrained {
		t.Fatalf("drained point misclassified: %v", rB.err)
	}
	j1.Close()
	st1.Close()

	// Restart: pA is in the store, pB is pending again — not failed.
	st2, j2 := openRecoveryPair(t, dir)
	defer st2.Close()
	defer j2.Close()
	c2 := NewCoordinator(Config{Store: st2, Journal: j2})
	defer c2.Shutdown()
	stats := c2.Stats()
	if stats.FromStore != 1 || stats.Failed != 0 {
		t.Fatalf("drained sweep did not resume cleanly: %+v", stats)
	}
	ch := runAsync(c2, "zeus", core.Compression, tinyOpts())
	lease := awaitLease(t, c2, "w0")
	c2.Handle(leaseResult(t, "w0", lease))
	if r := await(t, ch); r.err != nil {
		t.Fatal(r.err)
	}
}

// TestWorkerReconnectAfterCoordinatorRestart runs a real worker loop
// against a caller whose backing coordinator crashes after granting a
// lease and comes back — journal-recovered — while the worker is mid-
// retry. The result computed during the outage must be delivered to
// the new coordinator.
func TestWorkerReconnectAfterCoordinatorRestart(t *testing.T) {
	dir := t.TempDir()
	st1, j1 := openRecoveryPair(t, dir)
	c1 := NewCoordinator(Config{Store: st1, Journal: j1})

	// The switchable transport: phase 0 = c1, phase 1 = outage (every
	// call errors), phase 2 = c2.
	var mu sync.Mutex
	phase := 0
	var c2 *Coordinator
	caller := callerFunc(func(m Message) (Message, error) {
		mu.Lock()
		defer mu.Unlock()
		switch phase {
		case 0:
			if m.Type == MsgResult {
				// The coordinator "crashes" as the result arrives: the
				// message is lost unprocessed (like a real crash) and
				// every later call fails until the restart.
				phase = 1
				return Message{}, errors.New("connection refused")
			}
			return c1.Handle(m), nil
		case 1:
			return Message{}, errors.New("connection refused")
		default:
			return c2.Handle(m), nil
		}
	})

	chA := runAsync(c1, "zeus", core.Base, tinyOpts())
	workerDone := make(chan error, 1)
	go func() {
		workerDone <- RunWorker(WorkerConfig{
			ID: "w0", PollInterval: time.Millisecond,
			MaxCallRetries: 20, CallBackoff: 5 * time.Millisecond,
			Runner: func(bench string, m core.Mechanisms, o core.Options) (core.Point, error) {
				return fakePoint(bench, m, o), nil
			},
		}, caller)
	}()

	// Wait for the injected crash (the worker's first result send).
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		p := phase
		mu.Unlock()
		if p == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never reported a result")
		}
		time.Sleep(time.Millisecond)
	}
	crashCoordinator(c1, j1, st1)

	// Restart the coordinator from the journal while the worker retries.
	st2, j2 := openRecoveryPair(t, dir)
	defer st2.Close()
	defer j2.Close()
	mu.Lock()
	c2 = NewCoordinator(Config{Store: st2, Journal: j2})
	phase = 2
	mu.Unlock()

	// The recovered coordinator resolves pA with the worker's redelivered
	// result — the point is never re-simulated and never re-leased.
	chA2 := runAsync(c2, "zeus", core.Base, tinyOpts())
	if r := await(t, chA2); r.err != nil {
		t.Fatalf("redelivered result did not resolve the recovered point: %v", r.err)
	}
	_ = chA // c1's waiter died with the crash; nothing to assert on it.
	c2.Shutdown()
	if err := <-workerDone; err != nil {
		t.Fatalf("worker exited dirty after reconnect: %v", err)
	}
	st := c2.Stats()
	if st.Completed != 1 || st.Recovered != 1 {
		t.Fatalf("recovered sweep accounting: %+v", st)
	}
	if row := st.Workers[0]; row.Results != 1 {
		t.Fatalf("worker's redelivered result not counted: %+v", row)
	}
}

// TestWorkerDrainChannel pins ErrDrained: a worker whose Drain channel
// closes finishes nothing new and exits with the sentinel.
func TestWorkerDrainChannel(t *testing.T) {
	c := NewCoordinator(Config{})
	defer c.Shutdown()
	drain := make(chan struct{})
	close(drain)
	err := RunWorker(WorkerConfig{
		ID: "w0", Drain: drain, PollInterval: time.Millisecond,
		Runner: func(bench string, m core.Mechanisms, o core.Options) (core.Point, error) {
			t.Error("drained worker ran a point")
			return core.Point{}, nil
		},
	}, directCaller(c))
	if !errors.Is(err, ErrDrained) {
		t.Fatalf("err = %v, want ErrDrained", err)
	}
}
