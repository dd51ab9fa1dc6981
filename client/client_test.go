package client

import (
	"context"
	"errors"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"tafloc/internal/api"
	"tafloc/internal/core"
	"tafloc/internal/geom"
	"tafloc/internal/serve"
	"tafloc/internal/testbed"
	"tafloc/taflocerr"
)

// fixture is a running service behind a real TCP HTTP server plus a
// dialled client.
type fixture struct {
	dep *testbed.Deployment
	svc *serve.Service
	srv *httptest.Server
	cli *Client
}

func newFixture(t *testing.T) (*fixture, context.CancelFunc) {
	t.Helper()
	cfg := testbed.PaperConfig()
	cfg.RoomW, cfg.RoomH = 3.6, 2.4
	cfg.Links = 6
	cfg.SamplesPerCell = 5
	dep, err := testbed.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := serve.NewService(serve.Config{
		Window:            2,
		BatchSize:         8,
		DetectThresholdDB: 0.25,
		ZoneFactory: func(ctx context.Context, id string, spec api.ZoneSpec) (*core.System, error) {
			return newTestSystem(t, dep), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.AddZone("z", newTestSystem(t, dep)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := svc.Start(ctx); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	cli, err := Dial(ctx, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{dep: dep, svc: svc, srv: srv, cli: cli}
	t.Cleanup(func() {
		srv.Close()
		cancel()
		svc.Wait()
	})
	return f, cancel
}

func newTestSystem(t *testing.T, dep *testbed.Deployment) *core.System {
	t.Helper()
	layout, err := core.NewLayout(dep.Channel.Links(), dep.Grid, dep.Config.RF.MaskExcessM())
	if err != nil {
		t.Fatal(err)
	}
	survey, _ := dep.Survey(0)
	sys, err := core.NewSystem(layout, survey, dep.VacantCapture(0, 50), core.DefaultSystemOptions())
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func batch(dep *testbed.Deployment, p geom.Point) []Report {
	y := dep.Channel.MeasureLive(p, 0)
	out := make([]Report, len(y))
	for i, v := range y {
		out[i] = Report{Link: i, RSS: v}
	}
	return out
}

// TestWatchStreamsEstimates is the SDK acceptance test: over a real HTTP
// connection, Watch must deliver at least three estimates while reports
// flow, and cancelling the watch context must terminate the stream
// promptly.
func TestWatchStreamsEstimates(t *testing.T) {
	f, _ := newFixture(t)
	ctx := context.Background()

	// Pre-prepared batches: the channel sampler is not concurrency-safe.
	target := geom.Point{X: 1.5, Y: 1.2}
	var batches [][]Report
	for i := 0; i < 300; i++ {
		batches = append(batches, batch(f.dep, target))
	}

	watchCtx, cancelWatch := context.WithCancel(ctx)
	defer cancelWatch()
	ch, err := f.cli.Watch(watchCtx, "z")
	if err != nil {
		t.Fatal(err)
	}

	feedCtx, stopFeed := context.WithCancel(ctx)
	defer stopFeed()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-feedCtx.Done():
				return
			default:
			}
			_, _ = f.cli.Report(feedCtx, "z", batches[i%len(batches)])
			time.Sleep(2 * time.Millisecond)
		}
	}()

	var got []Estimate
	deadline := time.After(15 * time.Second)
	for len(got) < 3 {
		select {
		case e, open := <-ch:
			if !open {
				t.Fatalf("watch stream ended after %d estimates", len(got))
			}
			if e.Zone != "z" {
				t.Errorf("estimate for zone %q", e.Zone)
			}
			got = append(got, e)
		case <-deadline:
			t.Fatalf("only %d streamed estimates before deadline", len(got))
		}
	}
	for i := 1; i < len(got); i++ {
		if got[i].Seq <= got[i-1].Seq {
			t.Errorf("streamed estimates out of order: %d then %d", got[i-1].Seq, got[i].Seq)
		}
	}

	// Cancelling the watch context must close the channel promptly.
	cancelWatch()
	select {
	case <-drained(ch):
	case <-time.After(5 * time.Second):
		t.Fatal("watch channel not closed after context cancellation")
	}
	stopFeed()
	wg.Wait()
}

// drained returns a channel that closes once ch is fully drained/closed.
func drained(ch <-chan Estimate) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range ch {
		}
	}()
	return done
}

// TestWatchTerminalOnRemove checks the removal contract end to end: the
// stream of a removed zone ends with a Final estimate.
func TestWatchTerminalOnRemove(t *testing.T) {
	f, _ := newFixture(t)
	ctx := context.Background()

	ch, err := f.cli.Watch(ctx, "z")
	if err != nil {
		t.Fatal(err)
	}
	// One estimate so the stream is demonstrably live before removal.
	target := geom.Point{X: 1.2, Y: 0.9}
	for i := 0; i < 10; i++ {
		if _, err := f.cli.Report(ctx, "z", batch(f.dep, target)); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatal("no estimate before removal")
	}
	if err := f.cli.RemoveZone(ctx, "z"); err != nil {
		t.Fatal(err)
	}
	sawFinal := false
	deadline := time.After(10 * time.Second)
	for {
		select {
		case e, open := <-ch:
			if !open {
				if !sawFinal {
					t.Error("stream ended without a Final estimate")
				}
				return
			}
			if e.Final {
				sawFinal = true
			}
		case <-deadline:
			t.Fatal("stream did not terminate after zone removal")
		}
	}
}

// TestTypedErrors asserts the wire taxonomy round-trips: every error
// class the server produces comes back as the matching sentinel.
func TestTypedErrors(t *testing.T) {
	f, _ := newFixture(t)
	ctx := context.Background()

	if _, err := f.cli.Position(ctx, "nope"); !errors.Is(err, taflocerr.ErrUnknownZone) {
		t.Errorf("unknown zone: %v", err)
	}
	if _, err := f.cli.Report(ctx, "z", []Report{{Link: 99, RSS: -40}}); !errors.Is(err, taflocerr.ErrBadLink) {
		t.Errorf("bad link: %v", err)
	}
	if _, err := f.cli.Watch(ctx, "nope"); !errors.Is(err, taflocerr.ErrUnknownZone) {
		t.Errorf("watch unknown zone: %v", err)
	}
	if err := f.cli.RemoveZone(ctx, "nope"); !errors.Is(err, taflocerr.ErrUnknownZone) {
		t.Errorf("remove unknown zone: %v", err)
	}
	// Factory-backed creation works; duplicate is a typed conflict.
	if _, err := f.cli.AddZone(ctx, "extra", ZoneSpec{}); err != nil {
		t.Fatalf("AddZone: %v", err)
	}
	if _, err := f.cli.AddZone(ctx, "extra", ZoneSpec{}); !errors.Is(err, taflocerr.ErrZoneExists) {
		t.Errorf("duplicate AddZone: %v", err)
	}
	zones, err := f.cli.Zones(ctx)
	if err != nil || len(zones) != 2 {
		t.Errorf("zones: %v, %v", zones, err)
	}
	h, err := f.cli.Health(ctx)
	if err != nil || h.Status != "ok" || h.Zones != 2 {
		t.Errorf("health: %+v, %v", h, err)
	}
}

// TestSnapshotRoundTrip exports a zone over the SDK, removes it, and
// warm-restores it from the same bytes — the client-side deployment
// migration path.
func TestSnapshotRoundTrip(t *testing.T) {
	f, _ := newFixture(t)
	ctx := context.Background()

	data, err := f.cli.Snapshot(ctx, "z")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty snapshot")
	}
	if _, err := f.cli.Snapshot(ctx, "nope"); !errors.Is(err, taflocerr.ErrUnknownZone) {
		t.Errorf("snapshot of unknown zone: %v", err)
	}

	// Restoring over a live zone conflicts; after removal it succeeds.
	if _, err := f.cli.RestoreZone(ctx, "z", data); !errors.Is(err, taflocerr.ErrZoneExists) {
		t.Errorf("restore over live zone: %v", err)
	}
	if err := f.cli.RemoveZone(ctx, "z"); err != nil {
		t.Fatal(err)
	}
	zi, err := f.cli.RestoreZone(ctx, "z", data)
	if err != nil {
		t.Fatal(err)
	}
	if zi.Zone != "z" || zi.Links == 0 || zi.Cells == 0 {
		t.Errorf("restore info: %+v", zi)
	}

	// The restored zone serves: feed reports, read a position.
	target := geom.Point{X: 1.5, Y: 1.2}
	for i := 0; i < 10; i++ {
		if _, err := f.cli.Report(ctx, "z", batch(f.dep, target)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := f.cli.Position(ctx, "z"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("restored zone never published")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Damaged snapshots come back as the typed sentinels.
	if _, err := f.cli.RestoreZone(ctx, "z2", data[:len(data)/2]); !errors.Is(err, taflocerr.ErrSnapshotCorrupt) {
		t.Errorf("truncated restore: %v", err)
	}
	if _, err := f.cli.RestoreZone(ctx, "z2", []byte("junk")); !errors.Is(err, taflocerr.ErrSnapshotCorrupt) {
		t.Errorf("junk restore: %v", err)
	}
}

// TestWatchSkipsHeartbeats points Watch at a zone that publishes
// nothing while the server emits rapid heartbeat comments: the channel
// must stay open and deliver no spurious estimates, then deliver the
// real estimate once the zone finally publishes.
func TestWatchSkipsHeartbeats(t *testing.T) {
	cfg := testbed.PaperConfig()
	cfg.RoomW, cfg.RoomH = 3.6, 2.4
	cfg.Links = 6
	cfg.SamplesPerCell = 5
	dep, err := testbed.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := serve.NewService(serve.Config{
		Window:            2,
		DetectThresholdDB: 0.25,
		WatchHeartbeat:    10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.AddZone("slow", newTestSystem(t, dep)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := svc.Start(ctx); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	cli, err := Dial(ctx, srv.URL)
	if err != nil {
		t.Fatal(err)
	}

	// The watch gets its own context, cancelled (LIFO) before srv.Close —
	// otherwise Close blocks on the still-open SSE connection.
	watchCtx, cancelWatch := context.WithCancel(ctx)
	defer cancelWatch()
	ch, err := cli.Watch(watchCtx, "slow")
	if err != nil {
		t.Fatal(err)
	}
	// ~20 heartbeats pass; none may surface as an estimate.
	select {
	case e, open := <-ch:
		t.Fatalf("idle watch produced an event: %+v (open=%v)", e, open)
	case <-time.After(200 * time.Millisecond):
	}

	target := geom.Point{X: 1.2, Y: 0.9}
	for i := 0; i < 10; i++ {
		if _, err := cli.Report(ctx, "slow", batch(dep, target)); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case e, open := <-ch:
		if !open {
			t.Fatal("watch closed instead of delivering the estimate")
		}
		if e.Zone != "slow" {
			t.Errorf("estimate zone %q", e.Zone)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("estimate never arrived through the heartbeat stream")
	}
}

// TestDialValidation covers the constructor error paths.
func TestDialValidation(t *testing.T) {
	if _, err := New("not a url"); err == nil {
		t.Error("bad URL accepted")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if _, err := Dial(ctx, "http://127.0.0.1:1"); err == nil {
		t.Error("dial to dead port succeeded")
	}
}
