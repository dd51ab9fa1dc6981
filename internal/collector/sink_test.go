package collector

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"tafloc/internal/wire"
)

// TestCollectorBatchDatagramAndSink sends one concatenated-batch datagram
// and checks every frame reaches both the store and the registered batch
// sink, one sink call per datagram.
func TestCollectorBatchDatagramAndSink(t *testing.T) {
	const links = 3
	c, err := New(links, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var sunk []wire.RSSReport
	calls := 0
	c.SetBatchSink(func(frames []wire.RSSReport) {
		mu.Lock()
		sunk = append(sunk, frames...) // the slice is reused between datagrams
		calls++
		mu.Unlock()
	})
	ctx, cancel := context.WithCancel(context.Background())
	dataAddr, _, err := c.Start(ctx, "127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cancel()
		c.Wait()
	})

	reports := make([]wire.RSSReport, links)
	for i := range reports {
		reports[i] = wire.RSSReport{LinkID: uint16(i), Seq: 1, Time: time.Now()}
		reports[i].SetRSS(-40 - float64(i))
	}
	conn, err := net.Dial("udp", dataAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(wire.EncodeBatch(reports)); err != nil {
		t.Fatal(err)
	}

	// The sink runs after the datagram's last frame reached the store,
	// so waiting on the sink covers both.
	sinkCalls := func() int {
		mu.Lock()
		defer mu.Unlock()
		return calls
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && sinkCalls() < 1 {
		time.Sleep(time.Millisecond)
	}
	if st := c.Store.Stats(); st.FramesReceived != links || st.FramesDropped != 0 {
		t.Fatalf("stats after batch: %+v", st)
	}
	mu.Lock()
	if len(sunk) != links || calls != 1 {
		mu.Unlock()
		t.Fatalf("sink saw %d reports in %d calls, want %d in 1", len(sunk), calls, links)
	}
	for i, r := range sunk {
		if int(r.LinkID) != i || r.RSS() != -40-float64(i) {
			t.Errorf("sink report %d: %+v", i, r)
		}
	}
	mu.Unlock()

	// A batch whose second frame is corrupt: the corrupt frame costs
	// exactly one drop and the frames around it are salvaged.
	bad := wire.EncodeBatch(reports)
	bad[wire.FrameSize+4] ^= 0xFF
	if _, err := conn.Write(bad); err != nil {
		t.Fatal(err)
	}
	for time.Now().Before(deadline) && sinkCalls() < 2 {
		time.Sleep(time.Millisecond)
	}
	if st := c.Store.Stats(); st.FramesReceived != 2*links || st.FramesDropped != 1 {
		t.Fatalf("stats after corrupt batch: %+v, want received=%d dropped=1", st, 2*links)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(sunk) != 2*links-1 || calls != 2 {
		t.Errorf("sink saw %d reports in %d calls after corrupt batch, want %d in 2", len(sunk), calls, 2*links-1)
	}
}
