package serve

import (
	"fmt"
	"testing"
)

// TestPositionsShards covers the sharded position map directly: lookups
// miss then hit, delete removes exactly one zone, and all() merges the
// shards into one complete reader copy.
func TestPositionsShards(t *testing.T) {
	p := newPositions()
	if _, ok := p.get("nope"); ok {
		t.Fatal("hit on an empty map")
	}
	const n = 300 // enough zones that every shard holds several
	for i := 0; i < n; i++ {
		p.set(Estimate{Zone: fmt.Sprintf("zone-%03d", i), Cell: i})
	}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("zone-%03d", i)
		e, ok := p.get(id)
		if !ok || e.Cell != i {
			t.Fatalf("zone %s: got %+v, %v", id, e, ok)
		}
	}
	all := p.all()
	if len(all) != n {
		t.Fatalf("all() = %d zones, want %d", len(all), n)
	}
	p.delete("zone-007")
	if _, ok := p.get("zone-007"); ok {
		t.Fatal("deleted zone still resolves")
	}
	if got := len(p.all()); got != n-1 {
		t.Fatalf("all() after delete = %d, want %d", got, n-1)
	}
	// The earlier reader copy must not see the delete (copy-on-write).
	if _, ok := all["zone-007"]; !ok {
		t.Fatal("reader copy mutated by a later delete")
	}
}

// BenchmarkPublishFanout pins the point of sharding the copy-on-write
// position map: publish cost must scale with the shard size (zones/64),
// not the zone count. Before sharding, every publish copied the whole
// map — O(zones) per estimate — which capped the service at roughly 10k
// hot zones before publishing consumed the workers; compare the
// per-op cost of the two sub-benchmarks to see the residual growth.
func BenchmarkPublishFanout(b *testing.B) {
	for _, zones := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("zones=%d", zones), func(b *testing.B) {
			svc := newTestService(b, Config{})
			ids := make([]string, zones)
			for i := range ids {
				ids[i] = fmt.Sprintf("zone-%05d", i)
				svc.publish(nil, Estimate{Zone: ids[i], Cell: i})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				svc.publish(nil, Estimate{Zone: ids[i%zones], Cell: i})
			}
		})
	}
}
