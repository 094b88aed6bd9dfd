package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func val(s string) []byte { return []byte(fmt.Sprintf("{\"x\":%q}", s)) }

func TestPutGetReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("key-%d", i)
		if err := s.Put(k, val(k)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 20 {
		t.Fatalf("Len = %d, want 20", s.Len())
	}
	if v, ok := s.Get("key-7"); !ok || !bytes.Equal(v, val("key-7")) {
		t.Fatalf("Get key-7 = %s, %v", v, ok)
	}
	if _, ok := s.Get("missing"); ok {
		t.Fatal("Get(missing) reported a hit")
	}
	s.Close()

	r, err := Open(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Loaded() != 20 || r.Skipped() != 0 {
		t.Fatalf("reopen: loaded %d skipped %d, want 20/0", r.Loaded(), r.Skipped())
	}
	if v, ok := r.Get("key-13"); !ok || !bytes.Equal(v, val("key-13")) {
		t.Fatalf("reopened Get key-13 = %s, %v", v, ok)
	}
}

func TestPutDuplicateIsNoop(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put("k", val("first")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", val("second")); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Get("k"); !bytes.Equal(v, val("first")) {
		t.Fatalf("duplicate Put overwrote: %s", v)
	}
	// Only one record on disk.
	b, err := os.ReadFile(shardPath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(b, []byte{'\n'}); n != 1 {
		t.Fatalf("shard has %d records, want 1", n)
	}
}

func TestReadOnlyRefusesPut(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "not-created-yet")
	r, err := OpenRead(dir)
	if err != nil {
		t.Fatalf("OpenRead on a missing dir should succeed (empty store): %v", err)
	}
	if r.Len() != 0 {
		t.Fatalf("empty store Len = %d", r.Len())
	}
	if err := r.Put("k", val("v")); err == nil {
		t.Fatal("Put on a read-only store succeeded")
	}
}

// TestClosedStoreRefusesPut: Close seals a writer. A later Put must
// fail rather than silently reopen a shard, and must leave nothing on
// disk; the in-memory view stays readable.
func TestClosedStoreRefusesPut(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("a", val("a")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b", val("b")); err == nil {
		t.Fatal("Put on a closed store succeeded")
	}
	if _, ok := s.Get("a"); !ok {
		t.Fatal("closed store lost its in-memory view")
	}
	r, err := Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Loaded() != 1 {
		t.Fatalf("reopen loaded %d records, want 1 (the refused Put reached disk)", r.Loaded())
	}
}

// TestDisjointShardWriters exercises the store's cross-process
// concurrency contract in miniature: two independent Store handles on
// the same directory (separate fds, like two processes) append
// concurrently to disjoint shards while a read-only handle reloads
// mid-write. The reader must only ever observe intact records.
func TestDisjointShardWriters(t *testing.T) {
	dir := t.TempDir()
	const shards = 4
	// Partition keys by their shard so the two writers never touch the
	// same file.
	keysFor := func(want func(int) bool, n int) []string {
		var keys []string
		for i := 0; len(keys) < n; i++ {
			k := fmt.Sprintf("key-%d", i)
			if want(ShardOf(k, shards)) {
				keys = append(keys, k)
			}
		}
		return keys
	}
	even := keysFor(func(s int) bool { return s%2 == 0 }, 50)
	odd := keysFor(func(s int) bool { return s%2 == 1 }, 50)

	a, err := Open(dir, shards)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Open(dir, shards)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	reader, err := OpenRead(dir)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	write := func(s *Store, keys []string) {
		defer wg.Done()
		for _, k := range keys {
			if err := s.Put(k, val(k)); err != nil {
				t.Errorf("Put %s: %v", k, err)
				return
			}
		}
	}
	wg.Add(3)
	go write(a, even)
	go write(b, odd)
	go func() {
		// Reload mid-write: every observed record must be intact, and the
		// view only ever grows.
		defer wg.Done()
		last := 0
		for i := 0; i < 20; i++ {
			if err := reader.Reload(); err != nil {
				t.Errorf("mid-write Reload: %v", err)
				return
			}
			if reader.Skipped() != 0 {
				t.Errorf("mid-write reader skipped %d records", reader.Skipped())
				return
			}
			if n := reader.Len(); n < last {
				t.Errorf("reader view shrank: %d -> %d", last, n)
				return
			} else {
				last = n
			}
			for _, k := range reader.Keys() {
				v, _ := reader.Get(k)
				if !bytes.Equal(v, val(k)) {
					t.Errorf("reader saw wrong value for %s: %s", k, v)
					return
				}
			}
		}
	}()
	wg.Wait()

	if err := reader.Reload(); err != nil {
		t.Fatal(err)
	}
	if reader.Len() != 100 || reader.Skipped() != 0 {
		t.Fatalf("final view: %d keys, %d skipped; want 100/0", reader.Len(), reader.Skipped())
	}
}

// TestCorruptionMatrix: every way a record can be damaged must be
// skipped (never trusted) while
// intact neighbours still load, and a truncated tail must be healed so
// the writer's next append starts cleanly.
func TestCorruptionMatrix(t *testing.T) {
	build := func(t *testing.T) (string, []string) {
		dir := t.TempDir()
		s, err := Open(dir, 1) // one shard: every key in one file
		if err != nil {
			t.Fatal(err)
		}
		keys := []string{"alpha", "beta", "gamma"}
		for _, k := range keys {
			if err := s.Put(k, val(k)); err != nil {
				t.Fatal(err)
			}
		}
		s.Close()
		return dir, keys
	}
	path := func(dir string) string { return shardPath(dir, 0) }

	cases := []struct {
		name       string
		damage     func(t *testing.T, p string)
		wantLoaded int
		wantSkip   int
		wantHealed int
	}{
		{
			name: "garbage line between records",
			damage: func(t *testing.T, p string) {
				lines := readLines(t, p)
				lines = append(lines[:1], append([]string{"{not json"}, lines[1:]...)...)
				writeLines(t, p, lines)
			},
			wantLoaded: 3, wantSkip: 1,
		},
		{
			name: "flipped payload byte fails the CRC",
			damage: func(t *testing.T, p string) {
				lines := readLines(t, p)
				lines[1] = strings.Replace(lines[1], "\"x\"", "\"y\"", 1)
				writeLines(t, p, lines)
			},
			wantLoaded: 2, wantSkip: 1,
		},
		{
			name: "wrong version is skipped",
			damage: func(t *testing.T, p string) {
				lines := readLines(t, p)
				lines[0] = strings.Replace(lines[0], "{\"v\":1", "{\"v\":99", 1)
				writeLines(t, p, lines)
			},
			wantLoaded: 2, wantSkip: 1,
		},
		{
			name: "truncated tail is skipped and healed",
			damage: func(t *testing.T, p string) {
				b, err := os.ReadFile(p)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(p, b[:len(b)-20], 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantLoaded: 2, wantSkip: 1, wantHealed: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir, _ := build(t)
			tc.damage(t, path(dir))
			s, err := Open(dir, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if s.Loaded() != tc.wantLoaded || s.Skipped() != tc.wantSkip || s.Healed() != tc.wantHealed {
				t.Fatalf("loaded/skipped/healed = %d/%d/%d, want %d/%d/%d",
					s.Loaded(), s.Skipped(), s.Healed(), tc.wantLoaded, tc.wantSkip, tc.wantHealed)
			}
			// The store must stay appendable after damage: a fresh record
			// lands on its own line and survives a reopen.
			if err := s.Put("delta", val("delta")); err != nil {
				t.Fatal(err)
			}
			s.Close()
			r, err := Open(dir, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if v, ok := r.Get("delta"); !ok || !bytes.Equal(v, val("delta")) {
				t.Fatalf("post-damage append lost: %s, %v", v, ok)
			}
		})
	}
}

func TestEncodeParseRoundTrip(t *testing.T) {
	rec, err := EncodeRecord("k1", val("v1"))
	if err != nil {
		t.Fatal(err)
	}
	key, value, err := ParseRecord(bytes.TrimSuffix(rec, []byte{'\n'}))
	if err != nil {
		t.Fatal(err)
	}
	if key != "k1" || !bytes.Equal(value, val("v1")) {
		t.Fatalf("round trip: %q %s", key, value)
	}
	if _, err := EncodeRecord("k", []byte("not json")); err == nil {
		t.Fatal("EncodeRecord accepted invalid JSON")
	}
}

func TestShardOfStable(t *testing.T) {
	// Shard assignment is part of the on-disk layout contract: two
	// processes must agree on which file a key lives in.
	for _, k := range []string{"a", "b", "key-0"} {
		first := ShardOf(k, DefaultShards)
		if first < 0 || first >= DefaultShards {
			t.Fatalf("ShardOf(%q) = %d out of range", k, first)
		}
		if again := ShardOf(k, DefaultShards); again != first {
			t.Fatalf("ShardOf(%q) unstable: %d then %d", k, first, again)
		}
	}
}

func readLines(t *testing.T, p string) []string {
	t.Helper()
	b, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
}

func writeLines(t *testing.T, p string, lines []string) {
	t.Helper()
	if err := os.WriteFile(p, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestValuesAreIndependentCopies(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	v := val("orig")
	if err := s.Put("k", v); err != nil {
		t.Fatal(err)
	}
	v[0] = 'X' // caller mutates its buffer after Put
	got, _ := s.Get("k")
	if !json.Valid(got) || bytes.Equal(got[:1], []byte{'X'}) {
		t.Fatalf("stored value aliases the caller's buffer: %s", got)
	}
}
