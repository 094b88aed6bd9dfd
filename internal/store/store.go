// Package store implements the content-addressed result store shared
// across sweep runs: a directory of sharded, checksummed JSONL files
// mapping canonical string keys to opaque JSON values. Every record is
// CRC-32 checksummed and fsync'd on append; truncated tails are healed
// and corrupt records skipped, never trusted.
//
// Record format (one JSON object per line of shard-NNN.jsonl):
//
//	{"v":1,"crc":<IEEE CRC-32 of data>,"data":{"key":K,"value":V}}
//
// Concurrency contract: one writing process per directory. Open loads
// the directory once and there is no reader mode; another process sees
// new records only by opening the directory again. Shard assignment is
// content-driven (ShardOf hashes the key). Within a process a Store is
// safe for concurrent use.
package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Version guards the record schema; bump on incompatible changes so old
// files are skipped rather than misread.
const Version = 1

// DefaultShards is the shard-file count a store creates when the caller
// has no opinion. More shards means more independent append streams;
// Open always scans every shard file present regardless of the count it
// was given.
const DefaultShards = 8

// payload is the checksummed body of one record.
type payload struct {
	Key   string          `json:"key"`
	Value json.RawMessage `json:"value"`
}

// line is one JSONL line on disk.
type line struct {
	V    int             `json:"v"`
	CRC  uint32          `json:"crc"`
	Data json.RawMessage `json:"data"`
}

// EncodeRecord renders one complete record line (including the trailing
// newline) for key and value. The value must be valid JSON.
func EncodeRecord(key string, value []byte) ([]byte, error) {
	if !json.Valid(value) {
		return nil, fmt.Errorf("store: value for key %q is not valid JSON", key)
	}
	data, err := json.Marshal(payload{Key: key, Value: value})
	if err != nil {
		return nil, fmt.Errorf("store: encode record payload: %w", err)
	}
	rec, err := json.Marshal(line{V: Version, CRC: crc32.ChecksumIEEE(data), Data: data})
	if err != nil {
		return nil, fmt.Errorf("store: encode record line: %w", err)
	}
	return append(rec, '\n'), nil
}

// ParseRecord decodes one record line, verifying the version and the
// CRC. It is the single parsing path for every store read (and the
// fuzz target guarding it): a record it rejects is never trusted.
func ParseRecord(b []byte) (key string, value json.RawMessage, err error) {
	var rec line
	if err := json.Unmarshal(b, &rec); err != nil {
		return "", nil, fmt.Errorf("store: malformed record: %w", err)
	}
	if rec.V != Version {
		return "", nil, fmt.Errorf("store: record version %d (want %d)", rec.V, Version)
	}
	if crc32.ChecksumIEEE(rec.Data) != rec.CRC {
		return "", nil, fmt.Errorf("store: record checksum mismatch")
	}
	var p payload
	if err := json.Unmarshal(rec.Data, &p); err != nil {
		return "", nil, fmt.Errorf("store: malformed record payload: %w", err)
	}
	if p.Key == "" || len(p.Value) == 0 {
		return "", nil, fmt.Errorf("store: record missing key or value")
	}
	return p.Key, p.Value, nil
}

// ShardOf assigns a key to one of shards append streams (FNV-1a).
func ShardOf(key string, shards int) int {
	h := fnv.New32a()
	io.WriteString(h, key)
	return int(h.Sum32() % uint32(shards))
}

// shardPath names one shard's backing file.
func shardPath(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d.jsonl", shard))
}

// Store is one process's view of a store directory: what Open loaded
// plus this process's own Puts. It owns every shard it appends to.
type Store struct {
	mu      sync.Mutex
	dir     string
	shards  int
	closed  bool             // Close called, Put refused
	files   map[int]*os.File // open append handles per shard
	mem     map[string]json.RawMessage
	loaded  int
	skipped int
	healed  int
}

// Open opens (creating if needed) a store directory for reading and
// writing with the given shard count (<1 means DefaultShards). Every
// intact record in every shard file present is loaded; corrupt records
// are counted in Skipped and ignored; files whose tail was truncated by
// a mid-write kill are healed so later appends start on a fresh line.
func Open(dir string, shards int) (*Store, error) {
	if shards < 1 {
		shards = DefaultShards
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	s := &Store{dir: dir, shards: shards, files: make(map[int]*os.File), mem: make(map[string]json.RawMessage)}
	if err := s.scan(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// scan loads every shard file in the directory and heals truncated
// tails.
func (s *Store) scan() error {
	paths, err := filepath.Glob(filepath.Join(s.dir, "shard-*.jsonl"))
	if err != nil {
		return fmt.Errorf("store: scan %s: %w", s.dir, err)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := s.scanFile(p); err != nil {
			return err
		}
	}
	return nil
}

// scanFile loads one shard file's intact records.
func (s *Store) scanFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("store: open shard %s: %w", path, err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<26) // points with miss profiles are large
	for sc.Scan() {
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		key, value, err := ParseRecord(b)
		if err != nil {
			s.skipped++
			continue
		}
		if _, dup := s.mem[key]; !dup {
			s.mem[key] = append(json.RawMessage(nil), value...)
			s.loaded++
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("store: read shard %s: %w", path, err)
	}
	healed, err := healTail(path)
	if err != nil {
		return err
	}
	if healed {
		s.healed++
	}
	return nil
}

// healTail appends a newline to a file whose last byte is not one (a
// process killed mid-write left a partial record), so the writer's next
// append starts on a fresh line.
func healTail(path string) (bool, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return false, fmt.Errorf("store: heal shard %s: %w", path, err)
	}
	defer f.Close()
	end, err := f.Seek(0, io.SeekEnd)
	if err != nil || end == 0 {
		return false, err
	}
	buf := make([]byte, 1)
	if _, err := f.ReadAt(buf, end-1); err != nil || buf[0] == '\n' {
		return false, nil
	}
	if _, err := f.Write([]byte{'\n'}); err != nil {
		return false, fmt.Errorf("store: heal shard %s: %w", path, err)
	}
	return true, nil
}

// Get returns the value stored for key in this process's view.
func (s *Store) Get(key string) (json.RawMessage, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.mem[key]
	return v, ok
}

// Loaded returns how many intact records Open restored.
func (s *Store) Loaded() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.loaded
}

// Skipped returns how many corrupt or incompatible records Open
// detected and ignored.
func (s *Store) Skipped() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.skipped
}

// Dir returns the backing directory.
func (s *Store) Dir() string { return s.dir }

// Put appends one record to the key's shard and syncs it, so a kill at
// any moment loses at most the record being written. A key already in
// this process's view is a no-op (first write wins; values are expected
// to be deterministic functions of the key). A closed store refuses.
func (s *Store) Put(key string, value []byte) error {
	rec, err := EncodeRecord(key, value)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: Put on closed store %s", s.dir)
	}
	if _, ok := s.mem[key]; ok {
		return nil
	}
	f, err := s.shardFileLocked(ShardOf(key, s.shards))
	if err != nil {
		return err
	}
	if _, err := f.Write(rec); err != nil {
		return fmt.Errorf("store: append record: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("store: sync shard: %w", err)
	}
	s.mem[key] = append(json.RawMessage(nil), value...)
	return nil
}

// shardFileLocked opens (once) the append handle for one shard. Callers
// hold mu.
func (s *Store) shardFileLocked(shard int) (*os.File, error) {
	if f, ok := s.files[shard]; ok {
		return f, nil
	}
	f, err := os.OpenFile(shardPath(s.dir, shard), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open shard for append: %w", err)
	}
	s.files[shard] = f
	return f, nil
}

// Close releases the append handles. The in-memory view stays
// usable for Get; Put after Close fails.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	var first error
	for sh, f := range s.files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
		delete(s.files, sh)
	}
	return first
}
