package main

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"tafloc"
	"tafloc/internal/api"
	"tafloc/internal/core"
	"tafloc/internal/testbed"
)

func TestCoverCoalescedAndDropped(t *testing.T) {
	const links = 6
	need := func(batches ...uint64) []uint64 {
		out := make([]uint64, len(batches))
		for i, b := range batches {
			out[i] = b * links
		}
		return out
	}
	tests := []struct {
		name    string
		need    []uint64
		reports []uint64
		want    []int
	}{
		{
			name:    "one estimate per batch",
			need:    need(1, 2, 3),
			reports: need(1, 2, 3),
			want:    []int{0, 1, 2},
		},
		{
			name:    "coalesced: one estimate folds three batches",
			need:    need(1, 2, 3, 4),
			reports: need(1, 4),
			want:    []int{0, 1, 1, 1},
		},
		{
			name:    "dropped: the estimate for batch 2 never reached the watcher",
			need:    need(1, 2, 3),
			reports: need(1, 3),
			want:    []int{0, 1, 1},
		},
		{
			name:    "the last batches are never covered",
			need:    need(1, 2, 3),
			reports: need(1),
			want:    []int{0, -1, -1},
		},
		{
			name:    "warm-up estimates before the first timed batch",
			need:    need(5, 6),
			reports: need(1, 2, 3, 4, 6),
			want:    []int{4, 4},
		},
		{
			name:    "no estimates",
			need:    need(1),
			reports: nil,
			want:    []int{-1},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := cover(tc.need, tc.reports); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("cover = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestTailPercentileRule(t *testing.T) {
	tests := []struct {
		n    int
		want float64
	}{
		{n: 100000, want: 99}, // plenty beyond p99
		{n: 1000, want: 99},   // exactly 10 beyond p99
		{n: 500, want: 98},    // 10 beyond p98
		{n: 100, want: 90},
		{n: 20, want: 50},
		{n: 5, want: 50}, // never below the median
	}
	for _, tc := range tests {
		if got := tailPercentile(tc.n, 99); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("tailPercentile(%d, 99) = %v, want %v", tc.n, got, tc.want)
		}
	}
	// 1..1000: p99 by nearest rank is 990, leaving 10 samples above it.
	vals := make([]float64, 1000)
	for i := range vals {
		vals[len(vals)-1-i] = float64(i + 1)
	}
	d := summarize(vals, 99)
	if d.N != 1000 || d.Median != 500.5 || d.Tail != 990 || d.TailPct != 99 {
		t.Fatalf("summarize(1..1000) = %+v", d)
	}
	// 1..100: only p90 keeps 10 samples beyond it.
	d = summarize(append([]float64(nil), vals[:100]...), 99)
	if d.Median != 50.5 || d.Tail != 90 || d.TailPct != 90 {
		t.Fatalf("summarize(1..100) = %+v", d)
	}
	if d := summarize(nil, 99); d.N != 0 || d.Tail != 0 {
		t.Fatalf("summarize(nil) = %+v", d)
	}
}

// ringMean mirrors a w-deep per-link ring window fed one batch at a
// time and averaged slot by slot.
func ringMean(vecs [][]float64, acc []int32, n, w int) []float64 {
	links := len(vecs[0])
	ring := make([][]float64, links)
	for i := range ring {
		ring[i] = make([]float64, w)
	}
	fill := 0
	for j := 0; j < n; j++ {
		for i := 0; i < links; i++ {
			ring[i][j%w] = vecs[acc[j]][i]
		}
		if fill < w {
			fill++
		}
	}
	out := make([]float64, links)
	for i := range out {
		var sum float64
		for k := 0; k < fill; k++ {
			sum += ring[i][k]
		}
		out[i] = sum / float64(fill)
	}
	return out
}

func TestWindowMeanMatchesRing(t *testing.T) {
	vecs := make([][]float64, 50)
	for k := range vecs {
		vecs[k] = []float64{-40 - 0.37*float64(k), -55 + 0.11*float64(k*k%17), float64(k) / 3}
	}
	// Accepted batches skip some pool entries, as shed batches do, and
	// wrap around the pool.
	var acc []int32
	runs := accepted{pool: int32(len(vecs))}
	for k := 0; k < 2*len(vecs); k++ {
		if k%7 != 3 {
			p := int32(k % len(vecs))
			acc = append(acc, p)
			runs.add(p, phPaced)
		}
	}
	if len(runs.runs) > 2*len(vecs)/7+2 {
		t.Fatalf("%d accepted batches kept as %d runs", runs.n, len(runs.runs))
	}
	for j, want := range acc {
		if p, ph := runs.at(j); p != want || ph != phPaced {
			t.Fatalf("at(%d) = %d, %d; want %d, %d", j, p, ph, want, phPaced)
		}
	}
	for _, w := range []int{1, 3, 8} {
		for n := 1; n <= len(acc); n++ {
			got := make([]float64, 3)
			windowMean(got, vecs, &runs, n, w)
			if want := ringMean(vecs, acc, n, w); !reflect.DeepEqual(got, want) {
				t.Fatalf("w=%d n=%d: windowMean = %v, ring = %v", w, n, got, want)
			}
			// And it is the plain mean of the newest min(n, w) batches.
			lo := n - w
			if lo < 0 {
				lo = 0
			}
			for i := range got {
				var sum float64
				for j := lo; j < n; j++ {
					sum += vecs[acc[j]][i]
				}
				if mean := sum / float64(n-lo); math.Abs(mean-got[i]) > 1e-9 {
					t.Fatalf("w=%d n=%d link %d: %v, chronological mean %v", w, n, i, got[i], mean)
				}
			}
		}
	}
}

// TestWindowMeanServiceParity feeds a real service one batch at a time
// and checks that every published estimate is what Model.Locate gives
// on the rebuilt window mean.
func TestWindowMeanServiceParity(t *testing.T) {
	dep, err := testbed.New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := tafloc.OpenDeployment(dep)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := tafloc.NewService()
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.AddZone("z", sys); err != nil {
		t.Fatal(err)
	}
	ch, stop, err := svc.Watch("z")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := svc.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer func() {
		svc.Stop()
		svc.Wait()
	}()
	var vecs [][]float64
	acc := accepted{pool: 20}
	sc := core.NewScratch()
	for k := 0; k < 20; k++ {
		p := tafloc.Point{X: 0.4 + 0.14*float64(k), Y: 0.5 + 0.06*float64(k)}
		y := dep.Channel.MeasureLive(p, 0)
		batch := make([]api.Report, len(y))
		for i, v := range y {
			batch[i] = api.Report{Link: i, RSS: v}
		}
		vecs = append(vecs, y)
		if err := svc.Ingest("z", batch); err != nil {
			t.Fatal(err)
		}
		acc.add(int32(k), phPaced)
		var e api.Estimate
		select {
		case e = <-ch:
		case <-time.After(5 * time.Second):
			t.Fatalf("batch %d: no estimate", k)
		}
		if e.Reports != uint64(acc.n*len(y)) {
			t.Fatalf("batch %d: estimate covers %d reports, want %d", k, e.Reports, acc.n*len(y))
		}
		rebuilt := make([]float64, len(y))
		windowMean(rebuilt, vecs, &acc, acc.n, window)
		m := sys.Model()
		present, _ := m.Detect(rebuilt, detThreshold)
		if present != e.Present {
			t.Fatalf("batch %d: served present=%v, replay %v", k, e.Present, present)
		}
		if !present {
			continue
		}
		loc, err := m.Locate(rebuilt, sc)
		if err != nil {
			t.Fatal(err)
		}
		if loc.Cell != e.Cell || loc.Point != e.Point {
			t.Fatalf("batch %d: served cell %d at %v, replay cell %d at %v", k, e.Cell, e.Point, loc.Cell, loc.Point)
		}
	}
}

func TestAckTeeSplitsLinesAcrossReads(t *testing.T) {
	tee := &ackTee{}
	stream := `{"seq":1,"accepted":6}` + "\n" + `{"seq":2,"code":"queue_full","error":"full"}` + "\n" +
		`{"seq":3,"code":"bad_link","error":"x"}` + "\n" + `{"trailer":{"lines":3}}` + "\n"
	for i := 0; i < len(stream); i += 7 {
		end := i + 7
		if end > len(stream) {
			end = len(stream)
		}
		tee.feed([]byte(stream[i:end]))
	}
	want := []uint8{stAccepted, stShed, stRejected, stPending}
	for i, w := range want {
		if got := tee.statusOf(int32(i + 1)); got != w {
			t.Errorf("line %d: status %d, want %d", i+1, got, w)
		}
	}
}
