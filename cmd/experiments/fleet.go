// Fleet modes for the experiments command.
//
//	experiments -fleet 2 ...            # coordinator + 2 local pipe workers
//	experiments -serve :8080 ...        # coordinator serving HTTP workers
//	experiments -worker pipe            # worker over stdin/stdout
//	experiments -worker http://host:8080
//
// Fleet runs are bit-identical to single-process runs: workers return
// each point as the checksummed PointRecord the result store already
// uses, and encoding/json round-trips every float exactly.
package main

import (
	"errors"
	"fmt"
	"log"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"cmpsim/internal/audit"
	"cmpsim/internal/core"
	"cmpsim/internal/faultinject"
	"cmpsim/internal/fleet"
)

// runWorkerMode runs the process as one fleet worker until the
// coordinator says done. Exit codes: 0 done, 1 transport error, 2
// invalid check level or -worker mode (before any lease), 3 killed by a
// fault rule, 4 drained by SIGINT/SIGTERM (in-flight point finished and
// reported first), 130 second signal.
func runWorkerMode(mode, id, check string, injector *faultinject.Injector, workers, callRetries int, callBackoff time.Duration, progress bool) int {
	// The audit tier is the worker's own (satellite contract: CheckLevel
	// is canonicalized out of the point key, so leases never carry it).
	// Both the flag — validated by run() already — and the environment
	// must parse before the worker asks for any lease.
	if _, err := audit.ParseLevel(os.Getenv("CMPSIM_CHECK")); err != nil {
		log.Printf("CMPSIM_CHECK: %v", err)
		return 2
	}
	if id == "" {
		id = fmt.Sprintf("w%d", os.Getpid())
	}

	var caller fleet.Caller
	switch {
	case mode == "pipe":
		caller = fleet.NewPipeCaller(os.Stdin, os.Stdout)
	case strings.HasPrefix(mode, "http://"), strings.HasPrefix(mode, "https://"):
		caller = &fleet.HTTPCaller{URL: mode}
	default:
		log.Printf("-worker %q: want 'pipe' or a coordinator URL", mode)
		return 2
	}

	sched := core.NewScheduler(workers)
	defer sched.Close()
	if injector != nil {
		sched.SetFaultHook(injector.Hook)
		sched.SetStateFaultHook(injector.StateFault)
		fmt.Fprintf(os.Stderr, "[worker %s: faultinject active]\n", id)
	}

	logf := func(string, ...any) {}
	if progress {
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "["+format+"]\n", args...)
		}
	}
	// First SIGINT/SIGTERM drains the worker: the in-flight point (if
	// any) is finished and reported, then the loop exits. A second
	// signal exits immediately.
	drain := make(chan struct{})
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		logf("fleet: worker %s: draining on signal (signal again to exit now)", id)
		close(drain)
		<-sig
		os.Exit(130)
	}()

	cfg := fleet.WorkerConfig{
		ID: id, Fault: injector, Logf: logf, Drain: drain,
		MaxCallRetries: callRetries, CallBackoff: callBackoff,
		Runner: func(bench string, m core.Mechanisms, o core.Options) (core.Point, error) {
			// Leases carry canonical options; the worker re-applies its own
			// audit tier (it does not change the point's identity) and runs
			// the point on its own -workers pool.
			o.CheckLevel = check
			return sched.Submit(bench, m, o).Wait()
		},
	}
	switch err := fleet.RunWorker(cfg, caller); {
	case err == nil:
		return 0
	case errors.Is(err, fleet.ErrKilled):
		log.Printf("worker %s: %v", id, err)
		return 3
	case errors.Is(err, fleet.ErrDrained):
		log.Printf("worker %s: %v", id, err)
		return 4
	default:
		log.Printf("worker %s: %v", id, err)
		return 1
	}
}

// workerArgs builds the argument list spawned pipe workers inherit:
// the audit tier and the fault rules travel; everything identity-
// bearing arrives inside each lease instead.
func workerArgs(check, faults string) []string {
	var args []string
	if check != "" {
		args = append(args, "-check", check)
	}
	if faults != "" {
		args = append(args, "-faultinject", faults)
	}
	return args
}

// spawnFleet starts n copies of this binary as pipe workers and serves
// each one's message stream from its own goroutine. The returned wait
// function blocks until every worker's stream has drained and its
// process exited — call it after Coordinator.Shutdown. A worker that
// dies mid-sweep is logged, its leases requeued by ServePipe's EOF
// handling; the sweep carries on with the survivors.
func spawnFleet(coord *fleet.Coordinator, n int, extra []string) (wait func(), err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("fleet: locate own binary: %w", err)
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("w%d", i)
		args := append([]string{"-worker", "pipe", "-worker-id", id}, extra...)
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		stdin, err := cmd.StdinPipe()
		if err != nil {
			return nil, err
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("fleet: start worker %s: %w", id, err)
		}
		fmt.Fprintf(os.Stderr, "[fleet: worker %s started (pid %d)]\n", id, cmd.Process.Pid)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := coord.ServePipe(stdout, stdin); err != nil {
				fmt.Fprintf(os.Stderr, "[fleet: worker %s transport: %v]\n", id, err)
			}
			stdin.Close()
			if err := cmd.Wait(); err != nil {
				fmt.Fprintf(os.Stderr, "[fleet: worker %s exited: %v]\n", id, err)
			}
		}()
	}
	return wg.Wait, nil
}
