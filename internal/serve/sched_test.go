package serve

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"tafloc/internal/core"
	"tafloc/internal/geom"
)

// TestStarvedCounter pins the starvation satellite: a zone where some
// link never reports publishes nothing (silent before this change), and
// the Starved stat is the operator-visible trace that distinguishes
// that state from a zone with no traffic at all.
func TestStarvedCounter(t *testing.T) {
	dep := testDeployment(t)
	svc := newTestService(t, Config{Window: 2, BatchSize: 4, DetectThresholdDB: 0.25})
	if err := svc.AddZone("z", testSystem(t, dep)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := svc.Start(ctx); err != nil {
		t.Fatal(err)
	}

	// Reports for link 0 only: every fold round is starved.
	for i := 0; i < 5; i++ {
		if err := svc.Ingest("z", []Report{{Link: 0, RSS: -40}}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats()["z"].Starved == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	st := svc.Stats()["z"]
	if st.Starved == 0 {
		t.Fatalf("starved rounds not counted: %+v", st)
	}
	if st.Estimates != 0 {
		t.Fatalf("starved zone published estimates: %+v", st)
	}
	if _, ok := svc.Position("z"); ok {
		t.Fatal("starved zone has a published position")
	}

	// Once every link reports, estimates flow and Starved stops advancing.
	target := geom.Point{X: 1.2, Y: 0.9}
	for i := 0; i < 10; i++ {
		if err := svc.Ingest("z", targetBatch(dep, target)); err != nil {
			t.Fatal(err)
		}
	}
	waitForEstimate(t, svc, "z", func(e Estimate) bool { return e.Present })
	before := svc.Stats()["z"].Starved
	for i := 0; i < 5; i++ {
		_ = svc.Ingest("z", targetBatch(dep, target))
	}
	waitForEstimate(t, svc, "z", func(e Estimate) bool { return e.Reports > 10*6 })
	if after := svc.Stats()["z"].Starved; after != before {
		t.Errorf("healthy zone still counting starvation: %d -> %d", before, after)
	}
	cancel()
	svc.Wait()
}

// TestZoneCountDoesNotScaleGoroutines pins the executor-pool tentpole:
// registering hundreds of zones on a running service adds no goroutines
// — zones are state machines, and compute concurrency is
// Config.LocateWorkers, not the zone count.
func TestZoneCountDoesNotScaleGoroutines(t *testing.T) {
	dep := testDeployment(t)
	sys := testSystem(t, dep)
	svc := newTestService(t, Config{Window: 2, DetectThresholdDB: 0.25, LocateWorkers: 4})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := svc.Start(ctx); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	base := runtime.NumGoroutine()
	// Hundreds of zones sharing one calibrated System: safe now that the
	// read plane is an immutable Model, and the cheapest way to fan a
	// deployment wide.
	const zones = 300
	for i := 0; i < zones; i++ {
		if err := svc.AddZone(fmt.Sprintf("z%03d", i), sys); err != nil {
			t.Fatal(err)
		}
	}
	if got := runtime.NumGoroutine(); got > base+2 {
		t.Fatalf("%d zones grew goroutines %d -> %d; zones must not own goroutines", zones, base, got)
	}
	// The zones still serve: sparse traffic to a few of them localizes.
	target := geom.Point{X: 1.1, Y: 0.8}
	for i := 0; i < 8; i++ {
		for _, id := range []string{"z000", "z137", "z299"} {
			if err := svc.Ingest(id, targetBatch(dep, target)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, id := range []string{"z000", "z137", "z299"} {
		waitForEstimate(t, svc, id, func(e Estimate) bool { return e.Present })
	}
	cancel()
	svc.Wait()
}

// TestExecutorSubmitAfterClose pins the shutdown contract of the run
// queue: a submit racing close must be rejected (never queued, never
// run inline — the call sites hold the zone's schedMu, which the task
// bodies re-lock), so callers can unwind their scheduling state and
// zone lifecycle waits can never strand.
func TestExecutorSubmitAfterClose(t *testing.T) {
	e := newExecutor()
	if !e.submit(task{kind: foldTask}) {
		t.Fatal("submit on an open executor rejected")
	}
	e.close()
	if e.submit(task{kind: foldTask}) {
		t.Fatal("submit after close accepted; the workers may be gone")
	}
	// The pre-close task is still drained by a (late) worker.
	got, ok := e.next()
	if !ok || got.kind != foldTask {
		t.Fatalf("pre-close task lost: ok=%v kind=%v", ok, got.kind)
	}
	if _, ok := e.next(); ok {
		t.Fatal("rejected task appeared in the queue")
	}
}

// TestIngestDuringStartNeverStrands races Report against Start: a batch
// accepted in the handover window must still be folded — either by the
// ingest path's post-enqueue re-check or by Start's backlog scan —
// never counted into Received and then silently stranded.
func TestIngestDuringStartNeverStrands(t *testing.T) {
	dep := testDeployment(t)
	target := geom.Point{X: 1.2, Y: 0.9}
	for round := 0; round < 20; round++ {
		svc := newTestService(t, Config{Window: 2, DetectThresholdDB: 0.25, LocateWorkers: 2})
		if err := svc.AddZone("z", testSystem(t, dep)); err != nil {
			t.Fatal(err)
		}
		batch := targetBatch(dep, target)
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := svc.Ingest("z", append([]Report(nil), batch...)); err != nil {
				t.Errorf("round %d: %v", round, err)
			}
		}()
		if err := svc.Start(ctx); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		// One accepted batch covers every link, so exactly one estimate
		// must eventually publish with no further traffic.
		waitForEstimate(t, svc, "z", func(e Estimate) bool { return e.Reports >= uint64(len(batch)) })
		cancel()
		svc.Wait()
	}
}

// TestLocateWorkersNormalization pins the new Config field's
// unset-vs-explicit-minimum semantics alongside the existing ones.
func TestLocateWorkersNormalization(t *testing.T) {
	if got := (Config{}).withDefaults().LocateWorkers; got != runtime.GOMAXPROCS(0) {
		t.Errorf("default LocateWorkers = %d, want GOMAXPROCS = %d", got, runtime.GOMAXPROCS(0))
	}
	if got := (Config{LocateWorkers: -1}).withDefaults().LocateWorkers; got != 1 {
		t.Errorf("explicit minimum LocateWorkers = %d, want 1", got)
	}
	if got := (Config{LocateWorkers: 7}).withDefaults().LocateWorkers; got != 7 {
		t.Errorf("explicit LocateWorkers = %d, want 7", got)
	}
}

// TestHotZoneFoldOverlapsLocate exercises the pipelining path: batches
// arriving while a locate is in flight coalesce into the pending slot
// rather than blocking the fold stage, and the zone keeps publishing
// (run with -race; the assertion is liveness plus monotonic freshness).
func TestHotZoneFoldOverlapsLocate(t *testing.T) {
	dep := testDeployment(t)
	svc := newTestService(t, Config{Window: 2, BatchSize: 1, DetectThresholdDB: 0.25, LocateWorkers: 2})
	if err := svc.AddZone("z", testSystem(t, dep)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := svc.Start(ctx); err != nil {
		t.Fatal(err)
	}
	target := geom.Point{X: 1.5, Y: 1.2}
	var batches [][]Report
	for i := 0; i < 32; i++ {
		batches = append(batches, targetBatch(dep, target))
	}
	for i := 0; i < 400; i++ {
		b := append([]Report(nil), batches[i%len(batches)]...)
		for svc.Ingest("z", b) == ErrQueueFull {
			time.Sleep(100 * time.Microsecond)
		}
	}
	e := waitForEstimate(t, svc, "z", func(e Estimate) bool { return e.Present })
	st := svc.Stats()["z"]
	if st.Batches == 0 || st.Estimates == 0 {
		t.Fatalf("hot zone stats: %+v", st)
	}
	// Coalescing may skip intermediate rounds but never reorders: the
	// published estimate's report watermark only moves forward.
	last := e.Reports
	for i := 0; i < 50; i++ {
		b := append([]Report(nil), batches[i%len(batches)]...)
		for svc.Ingest("z", b) == ErrQueueFull {
			time.Sleep(100 * time.Microsecond)
		}
		if cur, ok := svc.Position("z"); ok {
			if cur.Reports < last {
				t.Fatalf("estimate went backwards: %d after %d", cur.Reports, last)
			}
			last = cur.Reports
		}
	}
	cancel()
	svc.Wait()
}

// blockingPresence is a detector that parks the first Present call until
// released, so a test can act between a fold round's detection and its
// locate.
type blockingPresence struct {
	once     *sync.Once
	entered  chan struct{}
	released chan struct{}
}

func (b blockingPresence) Present([]float64) (bool, float64) {
	b.once.Do(func() {
		close(b.entered)
		<-b.released
	})
	return true, 5
}

// recordingMatcher remembers every Model it was asked to match against.
type recordingMatcher struct {
	mu     sync.Mutex
	models []*core.Model
}

func (r *recordingMatcher) Match(m *core.Model, y []float64, sc *core.Scratch) (core.Location, error) {
	r.mu.Lock()
	r.models = append(r.models, m)
	r.mu.Unlock()
	return core.NNMatcher{}.Match(m, y, sc)
}

// TestRoundUsesOneModel pins that a fold→locate round detects and
// localizes against one Model: a System.Update that lands after the
// round's detection must not change the Model its locate matches with,
// or the published estimate would mix two calibrations.
func TestRoundUsesOneModel(t *testing.T) {
	dep := testDeployment(t)
	gate := blockingPresence{once: new(sync.Once), entered: make(chan struct{}), released: make(chan struct{})}
	if err := core.RegisterDetector("test-blocking", func([]float64, float64) core.Presence { return gate }); err != nil {
		t.Fatal(err)
	}
	layout, err := core.NewLayout(dep.Channel.Links(), dep.Grid, dep.Config.RF.MaskExcessM())
	if err != nil {
		t.Fatal(err)
	}
	survey, _ := dep.Survey(0)
	rec := &recordingMatcher{}
	opts := core.DefaultSystemOptions()
	opts.Matcher = rec
	sys, err := core.NewSystem(layout, survey, dep.VacantCapture(0, 50), opts)
	if err != nil {
		t.Fatal(err)
	}
	svc := newTestService(t, Config{Window: 1, DetectThresholdDB: 0.25, Detector: "test-blocking"})
	if err := svc.AddZone("z", sys); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := svc.Start(ctx); err != nil {
		t.Fatal(err)
	}

	pre := sys.Model()
	if err := svc.Ingest("z", targetBatch(dep, geom.Point{X: 1.5, Y: 1.2})); err != nil {
		t.Fatal(err)
	}
	select {
	case <-gate.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("fold round never reached detection")
	}
	refCols, _ := dep.SurveyCells(sys.References(), 45)
	_, err = sys.Update(refCols, dep.VacantCapture(45, 50))
	swapped := sys.Model() != pre
	close(gate.released)
	if err != nil {
		t.Fatal(err)
	}
	if !swapped {
		t.Fatal("Update did not publish a new Model")
	}
	waitForEstimate(t, svc, "z", func(e Estimate) bool { return e.Present })

	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.models) != 1 {
		t.Fatalf("matcher ran %d times, want 1", len(rec.models))
	}
	if rec.models[0] != pre {
		t.Error("locate matched against the Model published after the round's detection")
	}
}
