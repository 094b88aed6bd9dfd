// Durable coordinator journal: a write-ahead log of every state
// transition the result store cannot carry — lease grants, requeues,
// failure signatures, permanent failures and completions — filed next
// to the store's shards as journal.jsonl, with the store's record
// framing (CRC per entry, fsync per append, truncated-tail healing,
// corrupt-skip-never-trust). A restarted coordinator replays the
// journal plus a store scan and reconstructs exact pending/leased/
// failed state: stored points are never re-simulated, requeue budgets
// never restart, and recovered lease ids stay live so a worker that
// computed its point during the outage delivers it after reconnecting.
package fleet

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"

	"cmpsim/internal/core"
	"cmpsim/internal/store"
)

// JournalFile is the journal's filename inside a store directory.
const JournalFile = "journal.jsonl"

// Journal event kinds (the store-record key of each entry).
const (
	jGrant   = "grant"   // lease issued: id, worker, full point identity
	jRequeue = "requeue" // point back in the queue, one budget unit spent
	jFailSig = "failsig" // one worker's failure signature for a point
	jFail    = "fail"    // point permanently failed
	jDone    = "done"    // point completed (its record is in the store)
)

// Event payloads. Grant carries the full point identity so replay can
// rebuild a tracked point without waiting for the new run to request
// it; everything else keys on the canonical point key.
type grantEvent struct {
	Lease      uint64          `json:"lease"`
	Worker     string          `json:"worker"`
	Key        string          `json:"key"`
	Benchmark  string          `json:"benchmark"`
	Mechanisms core.Mechanisms `json:"mechanisms"`
	Options    core.Options    `json:"options"` // canonical form
}

type requeueEvent struct {
	Key      string `json:"key"`
	Requeues int    `json:"requeues"` // budget spent after this requeue
	Why      string `json:"why"`
}

type failSigEvent struct {
	Key    string `json:"key"`
	Worker string `json:"worker"`
	Sig    string `json:"sig"` // reason + ": " + error text
}

type failEvent struct {
	Key      string `json:"key"`
	Reason   string `json:"reason"`
	Error    string `json:"error"`
	Attempts int    `json:"attempts"`
}

type doneEvent struct {
	Key   string `json:"key"`
	Lease uint64 `json:"lease"`
}

// Journal is the coordinator's write-ahead log. Nil methods are safe:
// a nil *Journal journals nothing (the in-memory-only coordinator).
type Journal struct {
	j   *store.Journal
	rec recovery
}

// recovery is the state replayed from a journal at open time.
type recovery struct {
	points    map[string]*recoveredPoint
	leases    map[uint64]string // every granted lease id -> key
	nextLease uint64
	entries   int
	skipped   int
	healed    bool
}

// recoveredPoint accumulates one point's replayed history.
type recoveredPoint struct {
	key   string
	bench string
	mech  core.Mechanisms
	opts  core.Options

	requeues int
	failures map[string]string // worker -> failure signature
	lease    uint64            // outstanding lease id (0 = none)
	worker   string            // outstanding lease holder

	done       bool
	failed     bool
	failReason string
	failError  string
	failTries  int
}

// OpenJournal opens (creating if needed) the journal inside a store
// directory and replays it. The recovered state is consumed by
// NewCoordinator via Config.Journal.
func OpenJournal(dir string) (*Journal, error) {
	sj, err := store.OpenJournal(filepath.Join(dir, JournalFile))
	if err != nil {
		return nil, err
	}
	j := &Journal{j: sj}
	j.rec = replay(sj)
	return j, nil
}

// replay folds the journal's entries into per-point recovered state.
// Unknown kinds and undecodable payloads are skipped (never trusted),
// matching the store's corrupt-record discipline.
func replay(sj *store.Journal) recovery {
	rec := recovery{points: make(map[string]*recoveredPoint), leases: make(map[uint64]string)}
	point := func(key string) *recoveredPoint {
		p, ok := rec.points[key]
		if !ok {
			p = &recoveredPoint{key: key, failures: make(map[string]string)}
			rec.points[key] = p
		}
		return p
	}
	for _, e := range sj.Entries() {
		switch e.Kind {
		case jGrant:
			var ev grantEvent
			if json.Unmarshal(e.Data, &ev) != nil || ev.Key == "" || ev.Lease == 0 {
				rec.skipped++
				continue
			}
			p := point(ev.Key)
			p.bench, p.mech, p.opts = ev.Benchmark, ev.Mechanisms, ev.Options
			p.lease, p.worker = ev.Lease, ev.Worker
			rec.leases[ev.Lease] = ev.Key
			if ev.Lease > rec.nextLease {
				rec.nextLease = ev.Lease
			}
		case jRequeue:
			var ev requeueEvent
			if json.Unmarshal(e.Data, &ev) != nil || ev.Key == "" {
				rec.skipped++
				continue
			}
			p := point(ev.Key)
			if ev.Requeues > p.requeues {
				p.requeues = ev.Requeues
			}
			p.lease, p.worker = 0, "" // the outstanding grant was requeued
		case jFailSig:
			var ev failSigEvent
			if json.Unmarshal(e.Data, &ev) != nil || ev.Key == "" {
				rec.skipped++
				continue
			}
			point(ev.Key).failures[ev.Worker] = ev.Sig
		case jFail:
			var ev failEvent
			if json.Unmarshal(e.Data, &ev) != nil || ev.Key == "" {
				rec.skipped++
				continue
			}
			p := point(ev.Key)
			p.failed = true
			p.failReason, p.failError, p.failTries = ev.Reason, ev.Error, ev.Attempts
			p.lease, p.worker = 0, ""
		case jDone:
			var ev doneEvent
			if json.Unmarshal(e.Data, &ev) != nil || ev.Key == "" {
				rec.skipped++
				continue
			}
			p := point(ev.Key)
			p.done = true
			p.lease, p.worker = 0, ""
			delete(rec.leases, ev.Lease)
		default:
			rec.skipped++
		}
	}
	rec.entries = len(sj.Entries())
	return rec
}

// sortedKeys returns the recovered point keys in deterministic order
// (replay must queue pending points identically across restarts).
func (r *recovery) sortedKeys() []string {
	keys := make([]string, 0, len(r.points))
	for k := range r.points {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Skipped returns how many corrupt or undecodable events were ignored.
func (j *Journal) Skipped() int {
	if j == nil {
		return 0
	}
	return j.rec.skipped + j.j.Skipped()
}

// Path returns the backing file.
func (j *Journal) Path() string {
	if j == nil {
		return ""
	}
	return j.j.Path()
}

// append writes one event; a journal write failure must never stop the
// sweep, so the error is returned for logging only.
func (j *Journal) append(kind string, payload any) error {
	if j == nil {
		return nil
	}
	return j.j.Append(kind, payload)
}

// reset truncates the journal after a cleanly finished sweep.
func (j *Journal) reset() error {
	if j == nil {
		return nil
	}
	return j.j.Reset()
}

// Close releases the append handle.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	return j.j.Close()
}

// String summarizes the replayed state for startup logging.
func (j *Journal) String() string {
	if j == nil {
		return "no journal"
	}
	return fmt.Sprintf("%d events replayed (%d points), %d corrupt entries skipped",
		j.rec.entries, len(j.rec.points), j.Skipped())
}
