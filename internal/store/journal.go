// Journal: an append-only, checksummed event log sharing the store's
// record framing and durability discipline. Where the key→value store
// keeps only the latest state per key, the journal keeps *every* event
// in order — it is the write-ahead log a coordinator replays after a
// crash to reconstruct in-flight state the result store alone cannot
// carry (leases, requeue budgets, failure signatures).
//
// Each entry is one store record line whose key is the event kind and
// whose value is the event payload; appends are O_APPEND + fsync, so a
// kill at any instant loses at most the entry being written. Opening a
// journal heals a truncated tail and replays every intact entry in
// file order; corrupt entries are counted and skipped, never trusted.
package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// JournalEntry is one replayed event: its kind and raw payload.
type JournalEntry struct {
	Kind string
	Data json.RawMessage
}

// Journal is one process's append handle on an event log file. At most
// one process may append to a given journal; Append is safe for
// concurrent use within the process.
type Journal struct {
	mu      sync.Mutex
	path    string
	f       *os.File
	entries []JournalEntry
	skipped int
	healed  bool
}

// OpenJournal opens (creating if needed) a journal file, heals a
// truncated tail, and loads every intact entry for replay via Entries.
func OpenJournal(path string) (*Journal, error) {
	j := &Journal{path: path}
	if err := j.load(); err != nil {
		return nil, err
	}
	if _, err := os.Stat(path); err == nil {
		healed, err := healTail(path)
		if err != nil {
			return nil, err
		}
		j.healed = healed
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open journal %s: %w", path, err)
	}
	j.f = f
	return j, nil
}

// load scans the journal file's intact entries (missing file = empty).
func (j *Journal) load() error {
	f, err := os.Open(j.path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("store: open journal %s: %w", j.path, err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<26) // grant entries carry full option sets
	for sc.Scan() {
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		kind, value, err := ParseRecord(b)
		if err != nil {
			j.skipped++
			continue
		}
		j.entries = append(j.entries, JournalEntry{Kind: kind, Data: append(json.RawMessage(nil), value...)})
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("store: read journal %s: %w", j.path, err)
	}
	return nil
}

// Entries returns the intact events loaded at open time, in log order.
// The caller replays them once; later Appends are not reflected.
func (j *Journal) Entries() []JournalEntry {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.entries
}

// Skipped returns how many corrupt entries the open scan ignored.
func (j *Journal) Skipped() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.skipped
}

// Path returns the backing file.
func (j *Journal) Path() string { return j.path }

// Append writes one event and syncs it before returning — write-ahead
// discipline: an event acknowledged here survives any later crash.
func (j *Journal) Append(kind string, payload any) error {
	data, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("store: encode journal %s event: %w", kind, err)
	}
	rec, err := EncodeRecord(kind, data)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("store: journal %s is closed", j.path)
	}
	if _, err := j.f.Write(rec); err != nil {
		return fmt.Errorf("store: append journal entry: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("store: sync journal: %w", err)
	}
	return nil
}

// Reset truncates the journal to empty: called after a sweep completes
// cleanly, when every event it recorded is subsumed by the result store
// and replaying it would only rebuild retired state.
func (j *Journal) Reset() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.entries = nil
	if j.f == nil {
		return fmt.Errorf("store: journal %s is closed", j.path)
	}
	if err := j.f.Truncate(0); err != nil {
		return fmt.Errorf("store: reset journal: %w", err)
	}
	return j.f.Sync()
}

// Close releases the append handle. Append after Close fails.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
