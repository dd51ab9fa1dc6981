package serve

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"tafloc/internal/collector"
	"tafloc/internal/wire"
)

// wireBatch shapes n frames as a UDP batch datagram payload.
func wireBatch(n int, rssBase float64) []wire.RSSReport {
	reports := make([]wire.RSSReport, n)
	for i := range reports {
		reports[i] = wire.RSSReport{LinkID: uint16(i), Seq: uint32(i + 1), Time: time.Now()}
		reports[i].SetRSS(rssBase - float64(i))
	}
	return reports
}

// TestCollectorIngestSharedPath is the collector→Ingestor integration
// test: UDP batch datagrams forwarded through SetBatchSink +
// IngestSink must hit the same validation/shedding/counters as direct
// Ingest calls. The service is deliberately not started and given an
// exactly-known queue depth, so the shed point is deterministic: the
// same sequence of batches produces identical Received/Dropped whether
// it arrives over UDP or in-process.
func TestCollectorIngestSharedPath(t *testing.T) {
	const links = 3
	const depth = 2
	dep := testDeployment(t)

	// Two identical zones on one unstarted service: "udp" is fed through
	// the collector, "direct" through Service.Ingest. Queue depth 2 means
	// batches 3+ shed.
	svc := newTestService(t, Config{QueueDepth: depth})
	sysA, sysB := testSystem(t, dep), testSystem(t, dep)
	if err := svc.AddZone("udp", sysA); err != nil {
		t.Fatal(err)
	}
	if err := svc.AddZone("direct", sysB); err != nil {
		t.Fatal(err)
	}

	col, err := collector.New(links, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	col.SetBatchSink(IngestSink(svc, "udp"))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	dataAddr, _, err := col.Start(ctx, "127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cancel()
		col.Wait()
	})

	conn, err := net.Dial("udp", dataAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const batches = 5
	for k := 0; k < batches; k++ {
		frames := wireBatch(links, -40)
		if _, err := conn.Write(wire.EncodeBatch(frames)); err != nil {
			t.Fatal(err)
		}
		// The same batch in-process, converted exactly as the sink does.
		direct := make([]Report, len(frames))
		for i := range frames {
			direct[i] = FromWire(&frames[i])
		}
		err := svc.Ingest("direct", direct)
		if k < depth && err != nil {
			t.Fatalf("direct batch %d unexpectedly failed: %v", k, err)
		}
		if k >= depth && !errors.Is(err, ErrQueueFull) {
			t.Fatalf("direct batch %d: err = %v, want ErrQueueFull", k, err)
		}
	}

	// Wait until the collector has seen all frames.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if st := col.Store.Stats(); st.FramesReceived == uint64(batches*links) {
			break
		}
		time.Sleep(time.Millisecond)
	}

	stats := svc.Stats()
	udp, direct := stats["udp"], stats["direct"]
	if udp.Received != direct.Received || udp.Dropped != direct.Dropped {
		t.Errorf("UDP path counted differently from direct ingest:\n udp    %+v\n direct %+v", udp, direct)
	}
	wantReceived := uint64(depth * links)
	wantDropped := uint64((batches - depth) * links)
	if direct.Received != wantReceived || direct.Dropped != wantDropped {
		t.Errorf("direct stats %+v, want received=%d dropped=%d", direct, wantReceived, wantDropped)
	}

	// Link validation is shared too: an out-of-range frame is counted
	// dropped on the zone, not just at the collector.
	droppedBefore := svc.Stats()["udp"].Dropped
	bad := wire.RSSReport{LinkID: 99, Seq: 1, Time: time.Now()}
	bad.SetRSS(-40)
	if _, err := conn.Write(wire.EncodeBatch([]wire.RSSReport{bad})); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if svc.Stats()["udp"].Dropped == droppedBefore+1 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Errorf("bad-link frame not counted: dropped=%d, want %d", svc.Stats()["udp"].Dropped, droppedBefore+1)
}
