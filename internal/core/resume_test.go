package core

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"
)

// recordStore is a PointStore that keeps each finished point only as its
// JSON-encoded PointRecord, the shape the on-disk result store carries.
// A scheduler that resumes over it therefore sees exactly what a new
// process would read back: every restored point has been through an
// encode/decode round trip.
type recordStore struct {
	mu   sync.Mutex
	recs map[string][]byte
}

func newRecordStore() *recordStore { return &recordStore{recs: map[string][]byte{}} }

func (r *recordStore) Lookup(bench string, m Mechanisms, o Options) (Point, bool) {
	r.mu.Lock()
	raw, ok := r.recs[PointKey(bench, m, o)]
	r.mu.Unlock()
	if !ok {
		return Point{}, false
	}
	var rec PointRecord
	if err := json.Unmarshal(raw, &rec); err != nil || rec.Validate() != nil {
		return Point{}, false
	}
	return rec.Point, true
}

func (r *recordStore) Add(rec PointRecord) error {
	raw, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.recs[rec.Key()] = raw
	return nil
}

func (r *recordStore) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.recs)
}

// TestCheckpointResume: a result store is the scheduler's checkpoint.
// Points finished by one scheduler are restored bit-identically by the
// next one attached to the same store; only the missing point simulates.
func TestCheckpointResume(t *testing.T) {
	o := tinyOptions()
	rs := newRecordStore()

	// First process: simulate a subset, then "die".
	s1 := NewScheduler(2)
	s1.SetPointStore(rs)
	p1 := s1.Submit("zeus", Base, o).MustWait()
	p2 := s1.Submit("zeus", CacheCompr, o).MustWait()
	s1.Close()
	if rs.Len() != 2 {
		t.Fatalf("store holds %d records, want 2", rs.Len())
	}

	// Second process: resume over the same store.
	s2 := NewScheduler(2)
	defer s2.Close()
	s2.SetPointStore(rs)

	r1 := s2.Submit("zeus", Base, o).MustWait()
	r2 := s2.Submit("zeus", CacheCompr, o).MustWait()
	r3 := s2.Submit("zeus", Prefetch, o).MustWait() // not in the store

	if !reflect.DeepEqual(r1, p1) || !reflect.DeepEqual(r2, p2) {
		t.Fatal("restored points are not bit-identical to the original run")
	}
	if want := faultFreePoint(t, "zeus", Prefetch, o); !reflect.DeepEqual(r3, want) {
		t.Fatal("freshly simulated point differs from fault-free reference")
	}
	st := s2.Stats()
	if st.FromStore != 2 || st.Unique != 1 || st.SeedRuns != uint64(o.Seeds) {
		t.Fatalf("resume stats = %+v (want 2 from store, 1 simulated)", st)
	}
}

// TestCheckpointStudyEquivalence: a study interrupted after its first
// benchmark and resumed over the same store reproduces a fresh run's
// rows exactly while simulating only the points it never reached.
func TestCheckpointStudyEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full study round trip")
	}
	o := tinyOptions()
	benches := []string{"zeus", "mgrid"}

	fresh := func() []CompressionRow {
		s := NewScheduler(2)
		defer s.Close()
		return s.CompressionStudy(benches, o)
	}()

	// Interrupted run: only zeus's points land in the store.
	rs := newRecordStore()
	s1 := NewScheduler(2)
	s1.SetPointStore(rs)
	s1.CompressionStudy(benches[:1], o)
	s1.Close()

	// Resumed run: the full study must reproduce the fresh rows exactly
	// while simulating only mgrid's points.
	s2 := NewScheduler(2)
	defer s2.Close()
	s2.SetPointStore(rs)
	resumed := s2.CompressionStudy(benches, o)

	if !reflect.DeepEqual(resumed, fresh) {
		t.Fatalf("resumed study differs from fresh run:\nfresh   %+v\nresumed %+v", fresh, resumed)
	}
	st := s2.Stats()
	if st.FromStore != 4 || st.Unique != 4 {
		t.Fatalf("stats = %+v (want 4 zeus points from store, 4 simulated mgrid points)", st)
	}
}
