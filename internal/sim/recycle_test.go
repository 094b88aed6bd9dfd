package sim

import "testing"

// TestOnlyRunSharedTakesStorage drains the storage pool and gives it a
// New function that counts its calls. An empty pool calls New on every
// Get, so the count is how often anything asked the pool for storage:
// never for Run and NewSystem, once for RunShared, which then reports
// its System built fresh.
func TestOnlyRunSharedTakesStorage(t *testing.T) {
	for storages.Get() != nil {
	}
	gets := 0
	storages.New = func() any { gets++; return nil }
	defer func() { storages.New = nil }()

	cfg := smallConfig("zeus").WithMechanisms(true, true, true, true)
	cfg.WarmupInstr, cfg.MeasureInstr = 5_000, 5_000
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := NewSystem(cfg); err != nil {
		t.Fatal(err)
	}
	if gets != 0 {
		t.Fatalf("Run and NewSystem asked the storage pool %d times", gets)
	}
	_, info, err := RunShared(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gets != 1 || info.Recycled || !info.Fresh {
		t.Fatalf("RunShared on an empty pool: %d gets, info %+v", gets, info)
	}
}

// TestRunSharedValidatesFirst counts the storage pool's New calls, as
// TestOnlyRunSharedTakesStorage does: RunShared on an invalid Config
// must return the Validate error without asking the pool for storage,
// which it would then drop, leaving the next seed job to build fresh.
func TestRunSharedValidatesFirst(t *testing.T) {
	for storages.Get() != nil {
	}
	gets := 0
	storages.New = func() any { gets++; return nil }
	defer func() { storages.New = nil }()

	cfg := smallConfig("zeus")
	cfg.Cores = 0
	want := cfg.Validate()
	if want == nil {
		t.Fatal("a zero-core Config passed Validate")
	}
	_, info, err := RunShared(cfg, nil)
	if err == nil || err.Error() != want.Error() {
		t.Fatalf("RunShared error %v, want %v", err, want)
	}
	if gets != 0 || info.Recycled || info.Fresh {
		t.Fatalf("RunShared on an invalid Config: %d gets, info %+v", gets, info)
	}
}
