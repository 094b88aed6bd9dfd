package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

type testEvent struct {
	N int    `json:"n"`
	S string `json:"s"`
}

// Healed reports whether the open scan found (and repaired) a tail
// truncated by a mid-write kill.
func (j *Journal) Healed() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.healed
}

func openJournal(t *testing.T, path string) *Journal {
	t.Helper()
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

func TestJournalAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j := openJournal(t, path)
	for i := 0; i < 3; i++ {
		if err := j.Append("tick", testEvent{N: i, S: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Append("tock", testEvent{N: 99}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2 := openJournal(t, path)
	entries := j2.Entries()
	if len(entries) != 4 {
		t.Fatalf("replayed %d entries, want 4", len(entries))
	}
	for i := 0; i < 3; i++ {
		if entries[i].Kind != "tick" {
			t.Fatalf("entry %d kind = %q", i, entries[i].Kind)
		}
		var ev testEvent
		if err := json.Unmarshal(entries[i].Data, &ev); err != nil {
			t.Fatal(err)
		}
		if ev.N != i {
			t.Fatalf("entry %d payload = %+v", i, ev)
		}
	}
	if entries[3].Kind != "tock" {
		t.Fatalf("last entry kind = %q", entries[3].Kind)
	}
	if j2.Skipped() != 0 || j2.Healed() {
		t.Fatalf("clean journal reported skipped=%d healed=%v", j2.Skipped(), j2.Healed())
	}
}

func TestJournalCorruptEntrySkipped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j := openJournal(t, path)
	j.Append("a", testEvent{N: 1})
	j.Append("b", testEvent{N: 2})
	j.Close()

	// Flip a byte in the middle of the first record: its CRC must reject
	// it while the second record survives.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/4] ^= 0xFF
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	j2 := openJournal(t, path)
	if j2.Skipped() != 1 {
		t.Fatalf("skipped = %d, want 1", j2.Skipped())
	}
	entries := j2.Entries()
	if len(entries) != 1 || entries[0].Kind != "b" {
		t.Fatalf("surviving entries: %+v", entries)
	}
}

func TestJournalTruncatedTailHealed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j := openJournal(t, path)
	j.Append("a", testEvent{N: 1})
	j.Append("b", testEvent{N: 2})
	j.Close()

	// A mid-write kill leaves a partial final record with no newline.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)-20], 0o644); err != nil {
		t.Fatal(err)
	}
	j2 := openJournal(t, path)
	if !j2.Healed() {
		t.Fatal("truncated tail not healed")
	}
	entries := j2.Entries()
	if len(entries) != 1 || entries[0].Kind != "a" {
		t.Fatalf("surviving entries: %+v", entries)
	}
	// Appends after healing start on a fresh line and replay intact.
	if err := j2.Append("c", testEvent{N: 3}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	j3 := openJournal(t, path)
	entries = j3.Entries()
	if len(entries) != 2 || entries[1].Kind != "c" {
		t.Fatalf("post-heal replay: %+v", entries)
	}
}

func TestJournalReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j := openJournal(t, path)
	j.Append("a", testEvent{N: 1})
	if err := j.Reset(); err != nil {
		t.Fatal(err)
	}
	if len(j.Entries()) != 0 {
		t.Fatal("Reset left entries behind")
	}
	// Appends after Reset land at the start of the (truncated) file.
	if err := j.Append("b", testEvent{N: 2}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j2 := openJournal(t, path)
	entries := j2.Entries()
	if len(entries) != 1 || entries[0].Kind != "b" {
		t.Fatalf("post-reset replay: %+v", entries)
	}
}

func TestJournalClosedAppendFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j := openJournal(t, path)
	j.Close()
	if err := j.Append("a", testEvent{}); err == nil {
		t.Fatal("Append on closed journal succeeded")
	}
}
