package serve

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"tafloc/internal/geom"
	"tafloc/internal/snap"
	"tafloc/internal/store"
	"tafloc/internal/store/storetest"
	"tafloc/taflocerr"
)

// waitForHotZones polls until the resident-Model count drops to at most
// want. Eviction runs asynchronously after publish (enforceCap fires
// when a locate round drains), so tests must wait for the cap rather
// than assert it at an instant.
func waitForHotZones(t *testing.T, s *Service, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.HotZones() <= want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("still %d hot zones (want <= %d) before deadline", s.HotZones(), want)
}

// TestMaxHotZonesCapsResidentModels is the capacity acceptance test of
// the residency tier: a service with MaxHotZones=N serving M > N zones
// keeps every zone registered and publishing while holding at most N
// resident Models, and cold zones rehydrate transparently when traffic
// returns to them.
func TestMaxHotZonesCapsResidentModels(t *testing.T) {
	const zones, hotCap = 6, 2
	svc := newTestService(t, Config{Window: 4, DetectThresholdDB: 0.25, MaxHotZones: hotCap})
	deps := make([]*struct {
		batch []Report
		pt    geom.Point
	}, zones)
	for zi := 0; zi < zones; zi++ {
		dep := testDeployment(t)
		id := fmt.Sprintf("zone-%d", zi)
		if err := svc.AddZone(id, testSystem(t, dep)); err != nil {
			t.Fatal(err)
		}
		p := geom.Point{X: 0.6 + 0.4*float64(zi%4), Y: 0.9 + 0.3*float64(zi%3)}
		deps[zi] = &struct {
			batch []Report
			pt    geom.Point
		}{batch: targetBatch(dep, p), pt: p}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := svc.Start(ctx); err != nil {
		t.Fatal(err)
	}

	// Two full passes over all zones: the first forces evictions as each
	// zone's traffic pushes the service over cap, the second forces the
	// evicted zones to rehydrate on their next report.
	feed := func(pass int) {
		for zi := 0; zi < zones; zi++ {
			id := fmt.Sprintf("zone-%d", zi)
			prev := svc.Stats()[id].Estimates
			for svc.Ingest(id, append([]Report(nil), deps[zi].batch...)) == ErrQueueFull {
				time.Sleep(time.Millisecond)
			}
			waitForEstimate(t, svc, id, func(e Estimate) bool { return e.Seq > prev })
			_ = pass
		}
	}
	feed(1)
	waitForHotZones(t, svc, hotCap)
	feed(2)
	waitForHotZones(t, svc, hotCap)

	if got := svc.residentZones(); got > hotCap {
		t.Errorf("zone table holds %d resident Models, cap is %d", got, hotCap)
	}
	if got := len(svc.Zones()); got != zones {
		t.Errorf("Zones() = %d entries, want %d: eviction must not unregister", got, zones)
	}
	stats := svc.Stats()
	var cold int
	var evictions, rehydrates uint64
	for zi := 0; zi < zones; zi++ {
		id := fmt.Sprintf("zone-%d", zi)
		if _, ok := svc.Position(id); !ok {
			t.Errorf("zone %s: published estimate lost across eviction", id)
		}
		st := stats[id]
		if st.Cold {
			cold++
		}
		evictions += st.Evictions
		rehydrates += st.Rehydrates
		if st.RehydrateErrors != 0 || st.EvictErrors != 0 {
			t.Errorf("zone %s: spurious residency errors %+v", id, st)
		}
	}
	if cold < zones-hotCap {
		t.Errorf("%d cold zones, want >= %d", cold, zones-hotCap)
	}
	if evictions < zones-hotCap {
		t.Errorf("total evictions %d, want >= %d", evictions, zones-hotCap)
	}
	if rehydrates == 0 {
		t.Error("second feeding pass caused no rehydrations")
	}
}

// TestEvictRehydrateFidelity pins the core promise of tiered storage: a
// zone forced through an evict/rehydrate cycle between every batch
// publishes estimates bit-identical to an untouched control fed the
// same reports, and an evict/rehydrate round trip with no intervening
// traffic leaves the exported snapshot identical modulo SavedAt.
func TestEvictRehydrateFidelity(t *testing.T) {
	dep := testDeployment(t)
	sys := testSystem(t, dep)
	cfg := Config{Window: 4, DetectThresholdDB: 0.25}

	control := newTestService(t, cfg)
	if err := control.AddZone("z", sys); err != nil {
		t.Fatal(err)
	}
	// Clone the calibrated zone into the evicted service over the
	// snapshot codec so both start from identical state.
	data, err := control.SnapshotZone("z")
	if err != nil {
		t.Fatal(err)
	}
	evicted := newTestService(t, Config{Window: 4, DetectThresholdDB: 0.25, Store: store.NewMem()})
	if _, err := evicted.RestoreZone(data); err != nil {
		t.Fatal(err)
	}

	var batches [][]Report
	for i := 0; i < 12; i++ {
		p := geom.Point{X: 0.4 + 0.25*float64(i), Y: 0.5 + 0.15*float64(i%5)}
		batches = append(batches, targetBatch(dep, p))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := control.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if err := evicted.Start(ctx); err != nil {
		t.Fatal(err)
	}

	a := feedAndCollect(t, control, "z", batches)
	var b []Estimate
	for bi := range batches {
		// Force the full cold path before every batch: the report below
		// must rehydrate from the store to be processed at all.
		if err := evicted.EvictZone("z"); err != nil {
			t.Fatalf("evict before batch %d: %v", bi, err)
		}
		if st := evicted.Stats()["z"]; !st.Cold {
			t.Fatalf("zone still hot after EvictZone before batch %d", bi)
		}
		b = append(b, feedAndCollect(t, evicted, "z", batches[bi:bi+1])...)
	}
	for i := range a {
		if comparableEstimate(a[i]) != comparableEstimate(b[i]) {
			t.Fatalf("estimate %d diverges:\ncontrol: %+v\nevicted: %+v", i, a[i], b[i])
		}
	}

	// Lossless round trip: export, evict, rehydrate, export again.
	before, err := evicted.SnapshotZone("z")
	if err != nil {
		t.Fatal(err)
	}
	if err := evicted.EvictZone("z"); err != nil {
		t.Fatal(err)
	}
	if err := evicted.RehydrateZone("z"); err != nil {
		t.Fatal(err)
	}
	after, err := evicted.SnapshotZone("z")
	if err != nil {
		t.Fatal(err)
	}
	sa, err := snap.Decode(before)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := snap.Decode(after)
	if err != nil {
		t.Fatal(err)
	}
	sa.SavedAt, sb.SavedAt = time.Time{}, time.Time{}
	if !reflect.DeepEqual(sa, sb) {
		t.Error("snapshot changed across an idle evict/rehydrate cycle")
	}

	st := evicted.Stats()["z"]
	if st.Evictions == 0 || st.Rehydrates == 0 {
		t.Errorf("counters did not move: %+v", st)
	}
}

// TestRehydrateFailureTypedAndRetries: a store that cannot serve the
// snapshot back turns the zone's requests into CodeRehydrateFailed
// errors — but the zone stays registered, and the moment the store
// heals the next request rehydrates and serves as if nothing happened.
func TestRehydrateFailureTypedAndRetries(t *testing.T) {
	dep := testDeployment(t)
	faults := storetest.New(store.NewMem())
	svc := newTestService(t, Config{Window: 4, DetectThresholdDB: 0.25, Store: faults})
	if err := svc.AddZone("z", testSystem(t, dep)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := svc.Start(ctx); err != nil {
		t.Fatal(err)
	}
	batch := targetBatch(dep, geom.Point{X: 0.9, Y: 0.9})
	feedAndCollect(t, svc, "z", [][]Report{batch})

	if err := svc.EvictZone("z"); err != nil {
		t.Fatal(err)
	}
	injected := errors.New("backend down")
	faults.FailOp(storetest.OpGet, "z", injected, storetest.Forever)

	err := svc.Ingest("z", append([]Report(nil), batch...))
	if !errors.Is(err, ErrRehydrate) {
		t.Fatalf("Report on unrehydratable zone = %v, want ErrRehydrate", err)
	}
	if !errors.Is(err, taflocerr.ErrRehydrateFailed) {
		t.Fatalf("error %v does not match the taflocerr sentinel", err)
	}
	if !errors.Is(err, injected) {
		t.Fatalf("error %v does not wrap the store's cause", err)
	}
	// The failure is per-request degradation, not deregistration.
	if got := svc.Zones(); len(got) != 1 || got[0] != "z" {
		t.Fatalf("zone list after failed rehydrate: %v", got)
	}
	if st := svc.Stats()["z"]; !st.Cold || st.RehydrateErrors == 0 {
		t.Fatalf("stats after failed rehydrate: %+v", st)
	}
	// Direct rehydrate fails the same typed way.
	if err := svc.RehydrateZone("z"); !errors.Is(err, ErrRehydrate) {
		t.Fatalf("RehydrateZone = %v, want ErrRehydrate", err)
	}

	faults.Clear()
	feedAndCollect(t, svc, "z", [][]Report{batch})
	if st := svc.Stats()["z"]; st.Cold || st.Rehydrates == 0 {
		t.Fatalf("zone did not recover once the store healed: %+v", st)
	}
}

// TestTornSnapshotFailsClosed: a torn read from the store (truncated
// payload) must surface as a typed rehydrate failure via the snapshot
// codec's CRC, never as a garbage Model — and a later intact read
// recovers the zone.
func TestTornSnapshotFailsClosed(t *testing.T) {
	dep := testDeployment(t)
	faults := storetest.New(store.NewMem())
	svc := newTestService(t, Config{Window: 4, DetectThresholdDB: 0.25, Store: faults})
	if err := svc.AddZone("z", testSystem(t, dep)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := svc.Start(ctx); err != nil {
		t.Fatal(err)
	}
	batch := targetBatch(dep, geom.Point{X: 1.2, Y: 0.6})
	feedAndCollect(t, svc, "z", [][]Report{batch})
	if err := svc.EvictZone("z"); err != nil {
		t.Fatal(err)
	}

	faults.TearGet("z", 64, storetest.Forever)
	err := svc.Ingest("z", append([]Report(nil), batch...))
	if !errors.Is(err, ErrRehydrate) {
		t.Fatalf("Report over torn snapshot = %v, want ErrRehydrate", err)
	}
	faults.Clear()
	feedAndCollect(t, svc, "z", [][]Report{batch})
	if calls := faults.Calls(storetest.OpGet, "z"); calls < 2 {
		t.Errorf("expected at least 2 Get attempts (torn + retry), saw %d", calls)
	}
}

// TestEvictFailureKeepsServing: when the store rejects the checkpoint
// write, the eviction aborts — the zone stays hot, the failure is
// counted, and the service keeps serving from the resident Model. A
// broken store costs memory headroom, never availability.
func TestEvictFailureKeepsServing(t *testing.T) {
	dep := testDeployment(t)
	faults := storetest.New(store.NewMem())
	svc := newTestService(t, Config{Window: 4, DetectThresholdDB: 0.25, Store: faults})
	if err := svc.AddZone("z", testSystem(t, dep)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := svc.Start(ctx); err != nil {
		t.Fatal(err)
	}
	batch := targetBatch(dep, geom.Point{X: 0.7, Y: 1.1})
	feedAndCollect(t, svc, "z", [][]Report{batch})

	injected := errors.New("disk full")
	faults.FailOp(storetest.OpPut, "z", injected, storetest.Forever)
	err := svc.EvictZone("z")
	if !errors.Is(err, injected) {
		t.Fatalf("EvictZone = %v, want the store's error", err)
	}
	st := svc.Stats()["z"]
	if st.Cold {
		t.Fatal("zone went cold despite the checkpoint write failing")
	}
	if st.EvictErrors == 0 || st.Evictions != 0 {
		t.Fatalf("eviction accounting after failed write: %+v", st)
	}
	if svc.HotZones() != 1 {
		t.Fatalf("HotZones = %d after failed eviction, want 1", svc.HotZones())
	}
	// Still serving, from the still-resident Model: no store reads needed.
	feedAndCollect(t, svc, "z", [][]Report{batch})
	if calls := faults.Calls(storetest.OpGet, "z"); calls != 0 {
		t.Errorf("serving a hot zone touched the store: %d Gets", calls)
	}
}

// TestEvictWithoutStoreUnsupported: forcing an eviction on a service
// with no snapshot store is a typed refusal, not a panic or a lost
// Model.
func TestEvictWithoutStoreUnsupported(t *testing.T) {
	svc := newTestService(t, Config{Window: 4})
	if err := svc.AddZone("z", testSystem(t, testDeployment(t))); err != nil {
		t.Fatal(err)
	}
	err := svc.EvictZone("z")
	if taflocerr.CodeOf(err) != taflocerr.CodeUnsupported {
		t.Fatalf("EvictZone without a store = %v, want code unsupported", err)
	}
	if svc.HotZones() != 1 {
		t.Fatalf("HotZones = %d, want 1", svc.HotZones())
	}
}

// TestRemoveZoneDeletesFromStore: removing a zone deletes its snapshot
// from the residency store, so a later RestoreStore boot cannot
// resurrect it.
func TestRemoveZoneDeletesFromStore(t *testing.T) {
	dep := testDeployment(t)
	mem := store.NewMem()
	svc := newTestService(t, Config{Window: 4, DetectThresholdDB: 0.25, Store: mem})
	if err := svc.AddZone("z", testSystem(t, dep)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := svc.Start(ctx); err != nil {
		t.Fatal(err)
	}
	feedAndCollect(t, svc, "z", [][]Report{targetBatch(dep, geom.Point{X: 0.8, Y: 0.8})})
	if err := svc.EvictZone("z"); err != nil {
		t.Fatal(err)
	}
	if ids, err := mem.List(); err != nil || len(ids) != 1 {
		t.Fatalf("store after eviction: %v, %v", ids, err)
	}
	if err := svc.RemoveZone("z"); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.Get("z"); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("snapshot survived RemoveZone: %v", err)
	}
	boot := newTestService(t, Config{Window: 4})
	ids, err := boot.RestoreStore(mem)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Fatalf("removed zone resurrected on boot: %v", ids)
	}
}

// TestCheckpointStorePrunes covers checkpoint pruning through the Store
// interface with the in-memory backend: a removed zone's entry is
// deleted from the checkpoint target on the next pass, exactly as the
// directory backend prunes .snap files.
func TestCheckpointStorePrunes(t *testing.T) {
	depA, depB := testDeployment(t), testDeployment(t)
	svc := newTestService(t, Config{Window: 4})
	if err := svc.AddZone("a", testSystem(t, depA)); err != nil {
		t.Fatal(err)
	}
	if err := svc.AddZone("b", testSystem(t, depB)); err != nil {
		t.Fatal(err)
	}
	dst := store.NewMem()
	if err := svc.CheckpointStore(dst); err != nil {
		t.Fatal(err)
	}
	if ids, _ := dst.List(); len(ids) != 2 {
		t.Fatalf("checkpoint wrote %v, want 2 zones", ids)
	}
	if err := svc.RemoveZone("b"); err != nil {
		t.Fatal(err)
	}
	if err := svc.CheckpointStore(dst); err != nil {
		t.Fatal(err)
	}
	ids, err := dst.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != "a" {
		t.Fatalf("checkpoint after removal holds %v, want [a]", ids)
	}
}

// TestRestoreStoreSkipsDamagedEntries: one damaged entry in a backend
// reports a typed error but does not block the healthy zones from
// restoring — the partial-restore contract of RestoreDir, now pinned
// through the Store interface for every backend.
func TestRestoreStoreSkipsDamagedEntries(t *testing.T) {
	dep := testDeployment(t)
	src := store.NewMem()
	seed := newTestService(t, Config{Window: 4})
	if err := seed.AddZone("good", testSystem(t, dep)); err != nil {
		t.Fatal(err)
	}
	if err := seed.CheckpointStore(src); err != nil {
		t.Fatal(err)
	}
	if err := src.Put("bad", []byte("not a snapshot")); err != nil {
		t.Fatal(err)
	}

	boot := newTestService(t, Config{Window: 4})
	ids, err := boot.RestoreStore(src)
	if err == nil {
		t.Fatal("damaged entry restored without error")
	}
	if len(ids) != 1 || ids[0] != "good" {
		t.Fatalf("restored %v, want [good] despite the damaged sibling", ids)
	}
	if got := boot.Zones(); len(got) != 1 || got[0] != "good" {
		t.Fatalf("zones after partial restore: %v", got)
	}
}
