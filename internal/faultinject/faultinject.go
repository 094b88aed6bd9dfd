// Package faultinject provides deterministic fault injection for the
// experiment scheduler: seeded rules that fire a panic, a stall, or an
// injected error on the Nth matching seed job. It exists to prove the
// pipeline's fault tolerance — panic isolation, watchdog deadlines,
// failed points that never take a sweep down — under `go test -race`
// and behind the test-only -faultinject flag of cmd/experiments.
//
// Determinism: an Injector is deterministic with respect to the
// sequence of Hook invocations it sees. With concurrent workers the
// global job order is not fixed, so rules meant to hit one specific job
// should pin benchmark, label and seed (the per-job identity is
// deterministic) rather than rely on nth counting across jobs.
package faultinject

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Kind selects what a firing rule does to the seed job.
type Kind int

const (
	// Panic panics in the job (exercises recover/PointError isolation).
	Panic Kind = iota
	// Stall sleeps for StallFor before letting the job proceed
	// (exercises the watchdog deadline).
	Stall
	// Error returns an injected error (exercises ReasonError point
	// failures).
	Error
	// Corrupt injects a state corruption into the simulation itself
	// (sim.Config.StateFault) instead of acting in the hook: the run
	// proceeds until the configured step, flips the named piece of
	// simulator state, and the runtime auditor — at a sufficient
	// CheckLevel — must catch it (exercises the invariant pipeline).
	Corrupt

	// Transport faults: consulted by internal/fleet's worker around
	// protocol messages (Transport method) rather than by the
	// scheduler's seed hooks. They exercise the coordinator's recovery
	// matrix — heartbeat loss, lease expiry, duplicate results,
	// checksum rejection, worker-loss requeue.

	// Drop discards the message: a dropped lease is silently abandoned,
	// a dropped result is lost in flight (the coordinator requeues the
	// point when its heartbeats stop), a dropped heartbeat simulates
	// heartbeat loss.
	Drop
	// Delay delivers the message after sleeping StallFor.
	Delay
	// Dup delivers the message twice (exercises result idempotency).
	Dup
	// CorruptMsg flips a byte in the message payload before sending, so
	// the coordinator's CRC/decode validation must reject it and requeue.
	CorruptMsg
	// Kill terminates the worker while it holds a lease (the worker loop
	// returns fleet.ErrKilled / the worker process exits), exercising
	// worker-loss requeue of in-flight points.
	Kill

	// Coordinator faults: consulted by the coordinator's Handle (Coord
	// method) as each worker request arrives, before the message is
	// processed — the crash loses the request, exactly like a process
	// dying mid-exchange. They exercise journal replay: a restarted
	// coordinator must reconstruct pending/leased state from its
	// write-ahead log and the result store, bit-identically.

	// KillCoord crashes the coordinator process hard (no flush, no
	// drain — the cmd wiring calls os.Exit) and leaves it down until an
	// external supervisor restarts it.
	KillCoord
	// RestartCoord is the same crash, but signals the supervising
	// harness (tools/chaossoak, or an in-process test) to restart the
	// coordinator against the same store immediately.
	RestartCoord
)

// kindNames spells every kind as the spec grammar does; String and
// Parse both read it.
var kindNames = [...]string{
	Panic: "panic", Stall: "stall", Error: "error", Corrupt: "corrupt",
	Drop: "drop", Delay: "delay", Dup: "dup", CorruptMsg: "corruptmsg", Kill: "kill",
	KillCoord: "killcoord", RestartCoord: "restartcoord",
}

// String names the kind as the spec grammar spells it.
func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// parseKind is the inverse of String.
func parseKind(name string) (Kind, bool) {
	for k, n := range kindNames {
		if n == name {
			return Kind(k), true
		}
	}
	return 0, false
}

// transport reports whether the kind acts at the fleet protocol layer
// (worker side).
func (k Kind) transport() bool { return k >= Drop && k <= Kill }

// coordinator reports whether the kind crashes the coordinator.
func (k Kind) coordinator() bool { return k == KillCoord || k == RestartCoord }

// Rule describes one fault: which seed jobs it matches and what it does
// to them. Empty Benchmark/Label match anything; note that Seed's zero
// value matches only seed 0 — set Seed: AnySeed explicitly to match any
// seed (Parse defaults to AnySeed).
type Rule struct {
	Kind      Kind
	Benchmark string        // "" or "*" matches any benchmark
	Label     string        // mechanism label; "" or "*" matches any
	Seed      int           // AnySeed matches any seed
	Nth       int           // fire starting at the Nth match (1-based; <1 means 1st)
	Count     int           // firings before the rule burns out (<1 means 1; Forever = no limit)
	StallFor  time.Duration // Stall/Delay only; 0 means DefaultStall/DefaultDelay

	// Corrupt only: which state corruption to inject (a sim state-fault
	// name, e.g. "flip-sharer"; sim.Config validation rejects unknown
	// names) and the simulation step to inject it at (0 = DefaultAfter).
	Fault string
	After uint64

	// Transport kinds only: which protocol message the rule acts on
	// ("lease", "result", "heartbeat"; "" or "*" matches any) and which
	// worker it targets ("" or "*" matches any) — per-worker targeting is
	// what makes "kill exactly one worker mid-sweep" deterministic.
	Msg    string
	Worker string
}

// AnySeed makes a rule match every seed.
const AnySeed = -1

// Forever makes a rule fire on every match from Nth on.
const Forever = -1

// DefaultStall is the stall duration when a rule leaves StallFor zero:
// long enough that any sane watchdog deadline expires first.
const DefaultStall = 30 * time.Second

// DefaultAfter is the injection step for Corrupt rules that leave After
// zero: late enough that caches, stream tables and the in-flight table
// hold real state worth corrupting.
const DefaultAfter uint64 = 10_000

// DefaultDelay is the transport delay when a Delay rule leaves StallFor
// zero: long enough to reorder messages, short enough not to trip sane
// heartbeat timeouts on its own.
const DefaultDelay = 50 * time.Millisecond

// ErrInjected classifies injected errors: errors.Is(err,
// faultinject.ErrInjected) holds for every error Hook returns.
var ErrInjected = errors.New("faultinject: injected error")

// injectedErr is the error Error rules return.
type injectedErr struct {
	bench, label string
	seed         int
}

func (e *injectedErr) Error() string {
	return fmt.Sprintf("faultinject: injected error (%s/%s seed %d)", e.bench, e.label, e.seed)
}

// Is matches ErrInjected so callers can classify without the type.
func (e *injectedErr) Is(target error) bool { return target == ErrInjected }

// ruleState tracks one rule's match and firing counters.
type ruleState struct {
	Rule
	matched int
	fired   int
}

func (r *ruleState) matches(bench, label string, seed int) bool {
	if r.Benchmark != "" && r.Benchmark != "*" && r.Benchmark != bench {
		return false
	}
	if r.Label != "" && r.Label != "*" && r.Label != label {
		return false
	}
	if r.Seed != AnySeed && r.Seed != seed {
		return false
	}
	return true
}

// Injector evaluates rules against seed jobs. Safe for concurrent use.
type Injector struct {
	mu    sync.Mutex
	rules []*ruleState
}

// New builds an injector. Rules keep their slice order: when several
// fire on the same job, the first one acts.
func New(rules ...Rule) *Injector {
	in := &Injector{}
	for _, r := range rules {
		if r.Nth < 1 {
			r.Nth = 1
		}
		if r.Count == 0 {
			r.Count = 1
		}
		if r.Kind == Stall && r.StallFor <= 0 {
			r.StallFor = DefaultStall
		}
		if r.Kind == Delay && r.StallFor <= 0 {
			r.StallFor = DefaultDelay
		}
		if r.Kind == Corrupt && r.After == 0 {
			r.After = DefaultAfter
		}
		in.rules = append(in.rules, &ruleState{Rule: r})
	}
	return in
}

// fire counts a match on every rule pred accepts and fires the first
// one due, in rule order. It returns the fired rule, or nil. Every hook
// below is fire with its own rule predicate.
func (in *Injector) fire(pred func(*ruleState) bool) *ruleState {
	in.mu.Lock()
	defer in.mu.Unlock()
	var act *ruleState
	for _, r := range in.rules {
		if !pred(r) {
			continue
		}
		r.matched++
		if act == nil && r.matched >= r.Nth && (r.Count == Forever || r.fired < r.Count) {
			r.fired++
			act = r
		}
	}
	return act
}

// Hook is the scheduler-facing fault hook (core.FaultHook shaped): it
// counts every rule's matches and acts out the first rule due to fire —
// panicking, stalling, or returning an injected error.
func (in *Injector) Hook(bench, label string, seed int) error {
	act := in.fire(func(r *ruleState) bool {
		// Corrupt rules act through StateFault, transport rules through
		// Transport and coordinator rules through Coord — none through
		// the seed-job fault hook.
		return r.Kind != Corrupt && !r.Kind.transport() && !r.Kind.coordinator() && r.matches(bench, label, seed)
	})
	if act == nil {
		return nil
	}
	switch act.Kind {
	case Panic:
		panic(fmt.Sprintf("faultinject: injected panic (%s/%s seed %d)", bench, label, seed))
	case Stall:
		time.Sleep(act.StallFor)
		return nil
	default:
		return &injectedErr{bench: bench, label: label, seed: seed}
	}
}

// StateFault is the scheduler-facing state-corruption hook
// (core.StateFaultHook shaped): it counts Corrupt rules' matches and
// returns the "fault@step" spec of the first one due to fire, or "" when
// no corruption applies to this seed job.
func (in *Injector) StateFault(bench, label string, seed int) string {
	act := in.fire(func(r *ruleState) bool { return r.Kind == Corrupt && r.matches(bench, label, seed) })
	if act == nil {
		return ""
	}
	return fmt.Sprintf("%s@%d", act.Fault, act.After)
}

// TransportAction is what a fired transport rule tells the fleet layer
// to do with the message at hand.
type TransportAction struct {
	Kind  Kind          // Drop, Delay, Dup, CorruptMsg or Kill
	Delay time.Duration // Delay only
}

// Transport is the fleet-facing transport hook: it counts transport
// rules matching one protocol message (msg is "lease", "result" or
// "heartbeat"; worker is the worker's identity) and returns the action
// of the first rule due to fire. The boolean is false when the message
// should pass untouched. Transport rules that pin a seed never fire
// (protocol messages carry whole points, not seeds).
func (in *Injector) Transport(msg, worker, bench, label string) (TransportAction, bool) {
	act := in.fire(func(r *ruleState) bool { return r.Kind.transport() && r.matchesTransport(msg, worker, bench, label) })
	if act == nil {
		return TransportAction{}, false
	}
	return TransportAction{Kind: act.Kind, Delay: act.StallFor}, true
}

// Coord is the coordinator-facing crash hook: it counts coordinator
// rules matching one incoming worker request (msg is the request type —
// "hello", "next", "heartbeat" or "result" — and worker its sender) and
// returns the kind of the first rule due to fire. The boolean is false
// when the coordinator should process the request normally. The caller
// (fleet.Coordinator via Config.Crash) performs the actual crash.
func (in *Injector) Coord(msg, worker string) (Kind, bool) {
	act := in.fire(func(r *ruleState) bool { return r.Kind.coordinator() && r.matchesCoord(msg, worker) })
	if act == nil {
		return 0, false
	}
	return act.Kind, true
}

// matchesCoord is the coordinator-rule matcher: request type and worker
// identity, both with ""/"*" wildcards. Coordinator rules never match
// on benchmark/label/seed — hello and next carry no point identity, so
// schedules are pinned by message counting (nth=) instead.
func (r *ruleState) matchesCoord(msg, worker string) bool {
	if r.Msg != "" && r.Msg != "*" && r.Msg != msg {
		return false
	}
	if r.Worker != "" && r.Worker != "*" && r.Worker != worker {
		return false
	}
	return true
}

// matchesTransport is the transport-rule matcher: message type, worker
// identity, benchmark and mechanism label, all with ""/"*" wildcards.
func (r *ruleState) matchesTransport(msg, worker, bench, label string) bool {
	if r.Seed != AnySeed {
		return false
	}
	if r.Msg != "" && r.Msg != "*" && r.Msg != msg {
		return false
	}
	if r.Worker != "" && r.Worker != "*" && r.Worker != worker {
		return false
	}
	return r.matches(bench, label, AnySeed)
}

// Fired reports, per rule in construction order, how many times it has
// fired (test support).
func (in *Injector) Fired() []int {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]int, len(in.rules))
	for i, r := range in.rules {
		out[i] = r.fired
	}
	return out
}

// Parse builds an Injector from a compact rule spec, the grammar the
// test-only -faultinject flag of cmd/experiments accepts. Rules are
// separated by ';', fields within a rule by ',', each field key=value:
//
//	kind=panic|stall|error|corrupt       (required; seed-job faults)
//	kind=drop|delay|dup|corruptmsg|kill  (transport faults, fleet workers)
//	kind=killcoord|restartcoord          (coordinator crash faults)
//	bench=NAME                   (default any; "*" explicit any)
//	label=LABEL                  (mechanism label, default any)
//	seed=N                       (seed-job rules only, default any)
//	nth=N                        (fire starting at the Nth match, default 1)
//	count=N                      (firings before burn-out, default 1; -1 forever)
//	stall=DURATION               (stall rules, default 30s)
//	fault=NAME                   (corrupt rules, required: a sim state-fault name)
//	after=N                      (corrupt rules: injection step, default 10000)
//	msg=lease|result|heartbeat   (transport rules: which message, default any)
//	msg=hello|next|heartbeat|result  (coordinator rules: which request)
//	worker=ID                    (transport/coordinator rules: which worker)
//	delay=DURATION               (delay rules, default 50ms)
//
// Examples: "kind=panic,bench=zeus,label=base,seed=0;kind=corrupt,fault=flip-sharer",
// "kind=kill,worker=w0,msg=lease" (kill worker w0 on its first lease), and
// "kind=killcoord,msg=result,nth=2" (crash the coordinator as the second
// result report arrives, before it is processed).
func Parse(spec string) (*Injector, error) {
	var rules []Rule
	for _, rs := range strings.Split(spec, ";") {
		rs = strings.TrimSpace(rs)
		if rs == "" {
			continue
		}
		r := Rule{Seed: AnySeed}
		haveKind := false
		for _, field := range strings.Split(rs, ",") {
			k, v, ok := strings.Cut(strings.TrimSpace(field), "=")
			if !ok {
				return nil, fmt.Errorf("faultinject: field %q is not key=value", field)
			}
			switch k {
			case "kind":
				if r.Kind, haveKind = parseKind(v); !haveKind {
					return nil, fmt.Errorf("faultinject: unknown kind %q", v)
				}
			case "bench":
				r.Benchmark = v
			case "label":
				r.Label = v
			case "seed":
				n, err := strconv.Atoi(v)
				if err != nil {
					return nil, fmt.Errorf("faultinject: bad seed %q", v)
				}
				r.Seed = n
			case "nth":
				n, err := strconv.Atoi(v)
				if err != nil || n < 1 {
					return nil, fmt.Errorf("faultinject: bad nth %q", v)
				}
				r.Nth = n
			case "count":
				n, err := strconv.Atoi(v)
				if err != nil || n == 0 || n < Forever {
					return nil, fmt.Errorf("faultinject: bad count %q", v)
				}
				r.Count = n
			case "stall":
				d, err := time.ParseDuration(v)
				if err != nil || d <= 0 {
					return nil, fmt.Errorf("faultinject: bad stall %q", v)
				}
				r.StallFor = d
			case "fault":
				if v == "" {
					return nil, fmt.Errorf("faultinject: empty fault name")
				}
				r.Fault = v
			case "after":
				n, err := strconv.ParseUint(v, 10, 64)
				if err != nil || n == 0 {
					return nil, fmt.Errorf("faultinject: bad after %q", v)
				}
				r.After = n
			case "msg":
				switch v {
				case "hello", "next", "lease", "result", "heartbeat", "*":
					r.Msg = v
				default:
					return nil, fmt.Errorf("faultinject: unknown msg %q", v)
				}
			case "worker":
				if v == "" {
					return nil, fmt.Errorf("faultinject: empty worker id")
				}
				r.Worker = v
			case "delay":
				d, err := time.ParseDuration(v)
				if err != nil || d <= 0 {
					return nil, fmt.Errorf("faultinject: bad delay %q", v)
				}
				r.StallFor = d
			default:
				return nil, fmt.Errorf("faultinject: unknown field %q", k)
			}
		}
		if !haveKind {
			return nil, fmt.Errorf("faultinject: rule %q is missing kind=", rs)
		}
		if r.Kind == Corrupt && r.Fault == "" {
			return nil, fmt.Errorf("faultinject: corrupt rule %q is missing fault=", rs)
		}
		if r.Kind != Corrupt && (r.Fault != "" || r.After != 0) {
			return nil, fmt.Errorf("faultinject: fault=/after= only apply to kind=corrupt in %q", rs)
		}
		if !r.Kind.transport() && !r.Kind.coordinator() && (r.Msg != "" || r.Worker != "") {
			return nil, fmt.Errorf("faultinject: msg=/worker= only apply to transport and coordinator kinds in %q", rs)
		}
		if (r.Kind.transport() || r.Kind.coordinator()) && r.Seed != AnySeed {
			return nil, fmt.Errorf("faultinject: rule %q cannot pin seed=", rs)
		}
		if r.Kind.transport() && (r.Msg == "hello" || r.Msg == "next") {
			return nil, fmt.Errorf("faultinject: worker transport rules act on lease|result|heartbeat in %q", rs)
		}
		if r.Kind.coordinator() {
			if r.Benchmark != "" || r.Label != "" {
				return nil, fmt.Errorf("faultinject: bench=/label= do not apply to coordinator rules in %q", rs)
			}
			if r.Msg == "lease" {
				return nil, fmt.Errorf("faultinject: coordinator rules act on hello|next|heartbeat|result in %q", rs)
			}
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("faultinject: empty spec")
	}
	return New(rules...), nil
}
