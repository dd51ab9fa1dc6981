package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"tafloc"
	"tafloc/internal/api"
	"tafloc/internal/core"
	"tafloc/internal/snap"
	"tafloc/internal/store"
	"tafloc/internal/track"
)

// Replay sizes: how many calls each isolated replay times at most, and
// the wall-time budget of one replay.
const (
	maxLocateReplays = 3000
	maxCodecReplays  = 400
	replayBudget     = 300 * time.Millisecond
	idleUpdates      = 5
	chunk            = 16 // calls timed together where one call is too short to time alone
)

// layerMetrics computes the per-layer metrics of a traced run: timings
// of the benchmark's own calls into each layer during the run, and
// replays of the layers in isolation on the run's inputs afterwards.
func (r *runner) layerMetrics(pr *phaseRun, a *analysis, updT *tracer) ([]metric, []string) {
	var failures []string
	rep := newTracer("replay")
	replayStart := r.now()
	zs0 := r.inst.zs[0]

	// core: Locate and Detect over the rebuilt window means of served
	// estimates, one goroutine, one Scratch.
	locCost := map[*recvRec]float64{}
	var locUs, detUs []float64
	sc := core.NewScratch()
	var ys [][]float64
	var ests []*recvRec
	for _, e := range r.replaySet(a) {
		ys = append(ys, r.rebuild(e))
		ests = append(ests, e)
	}
	for i, e := range ests {
		m := r.latestModel(e.zone)
		t0 := r.now()
		_, err := m.Locate(ys[i], sc)
		t1 := r.now()
		if err != nil {
			failures = append(failures, fmt.Sprintf("locate replay: %v", err))
			break
		}
		rep.add(spLocate, -1, e.zone, int64(e.reports), t0, t1)
		locCost[e] = float64(t1 - t0)
		locUs = append(locUs, float64(t1-t0)/1e3)
	}
	for i := 0; i+chunk <= len(ys); i += chunk {
		m := r.latestModel(ests[i].zone)
		t0 := r.now()
		for k := i; k < i+chunk; k++ {
			m.Detect(ys[k], detThreshold)
		}
		t1 := r.now()
		rep.add(spDetect, -1, ests[i].zone, int64(ests[i].reports), t0, t1)
		detUs = append(detUs, float64(t1-t0)/1e3/chunk)
	}
	loc := summarize(locUs, 99)
	det := summarize(detUs, 99)

	// serve: ingest (or, on the wire, the stream send) and the wait left
	// after ingest and locate are taken out of the paced latency.
	var ingestUs, sendUs, waitMs []float64
	var ingestSatNs, sendSatNs float64
	if r.inst.stream != nil {
		sendUs, sendSatNs = r.tracedSendUs, float64(r.satSendNs)
	} else {
		ingestUs, ingestSatNs = r.tracedSendUs, float64(r.satSendNs)
	}
	for _, j := range a.joined {
		lc := 0.0
		if j.est.present {
			c, ok := locCost[j.est]
			if !ok {
				continue
			}
			lc = c
		}
		lat := float64(j.est.recv - j.rec.due)
		waitMs = append(waitMs, (lat-float64(j.rec.done-j.rec.sent)-lc)/1e6)
	}
	var lagUs []float64
	for _, t := range r.inst.watchT {
		for _, s := range t.spans {
			lagUs = append(lagUs, float64(s.end-s.start)/1e3)
		}
	}
	drops := 0.0
	for _, zs := range r.inst.zs {
		drops += float64(pr.final[zs.id].Estimates) - float64(zs.nrecv)
	}
	// snap and store: the codec and the Mem backend on one zone's snapshot.
	sn, err := snap.Decode(pr.snapBytes)
	if err != nil {
		failures = append(failures, fmt.Sprintf("snapshot decode: %v", err))
	}
	var encUs, decUs, putUs, getUs []float64
	if sn != nil {
		encUs = r.timeCalls(rep, spSnapEncode, func() error { _, err := snap.Encode(sn); return err })
		decUs = r.timeCalls(rep, spSnapDecode, func() error { _, err := snap.Decode(pr.snapBytes); return err })
	}
	st := store.NewMem()
	putUs = r.timeCalls(rep, spStorePut, func() error { return st.Put(zs0.id, pr.snapBytes) })
	getUs = r.timeCalls(rep, spStoreGet, func() error { _, err := st.Get(zs0.id); return err })

	// serve residency: EvictZone/RehydrateZone of a spare copy of zone 0
	// in a service of its own, so the replay disturbs no LRU order.
	evictUs, rehydUs, err := r.residencyReplay(rep, zs0)
	if err != nil {
		failures = append(failures, err.Error())
	}

	// track: the publish-path filter over zone 0's received fixes.
	trackNs := r.trackReplay(rep, zs0)

	// api: NDJSON line decode and estimate encode.
	decLineUs, encEstUs := r.apiReplay(rep, zs0)

	// core calibration plane: System.Update on an idle copy (refresh only).
	var updMs []float64
	var updAllocMB float64
	if zs0.dep.refCols != nil {
		updMs, updAllocMB, err = r.idleUpdates(rep, zs0)
		if err != nil {
			failures = append(failures, err.Error())
		}
	}
	var refreshMs []float64
	if updT != nil {
		for _, s := range updT.spans {
			refreshMs = append(refreshMs, float64(s.end-s.start)/1e6)
		}
	}
	rep.add(spReplay, -1, -1, 0, replayStart, r.now())

	// Shares of the saturation phase's CPU (wall time × GOMAXPROCS).
	satSec := float64(pr.satEnd-pr.satStart) / 1e9
	cpu := satSec * float64(runtime.GOMAXPROCS(0))
	dEst := float64(pr.tot1.estimates - pr.tot0.estimates)
	dRec := float64(pr.tot1.received - pr.tot0.received)
	present := r.presentShare()
	enc, dec := summarize(encUs, 99), summarize(decUs, 99)
	put, get := summarize(putUs, 99), summarize(getUs, 99)
	trk := summarize(trackNs, 99)
	decLine, encEst := summarize(decLineUs, 99), summarize(encEstUs, 99)
	apiShare := 0.0
	if r.inst.stream != nil {
		lines := float64(r.satAttempts)
		apiShare = (lines*decLine.Median + dEst*encEst.Median) / 1e6 / cpu
	}
	shares := []metric{
		{"core.locate_cpu_share", "ratio", dEst * present * loc.Median / 1e6 / cpu},
		{"serve.ingest_cpu_share", "ratio", ingestSatNs / 1e9 / cpu},
		{"track.cpu_share", "ratio", dEst * present * trk.Median / 1e9 / cpu},
		{"client.cpu_share", "ratio", sendSatNs / 1e9 / cpu},
		{"api.cpu_share", "ratio", apiShare},
		{"gc.cpu_share", "ratio", (pr.rt1.gcCPU - pr.rtSat0.gcCPU) / cpu},
	}
	top := shares[0]
	for _, s := range shares[1:] {
		if s.value > top.value {
			top = s
		}
	}
	fmt.Printf("largest layer share of saturation CPU: %s = %.4f\n", top.name, top.value)

	ing := summarize(ingestUs, 99)
	wait := summarize(waitMs, 99)
	lag := summarize(lagUs, 99)
	ev, rh := summarize(evictUs, 99), summarize(rehydUs, 99)
	upd := summarize(updMs, 99)
	refresh := summarize(refreshMs, 99)
	send := summarize(sendUs, 99)
	genLag := summarize(a.lagMs, 99)
	untr, tr := summarize(a.latMs, 99), summarize(a.latTracedMs, 99)
	tail, _, _ := windowTail(a.latWindows, 99)
	overhead := 0.0
	if untr.Median > 0 {
		overhead = 100 * (tr.Median - untr.Median) / untr.Median
	}
	timed := float64(pr.satEnd-pr.pacedStart) / 1e9
	shedRatio, perEst := 0.0, 0.0
	if r.satAttempts > 0 {
		shedRatio = float64(r.satShed) / float64(r.satAttempts)
	}
	if dEst > 0 {
		perEst = dRec / dEst
	}
	for _, d := range []struct {
		name string
		d    dist
	}{
		{"serve.ingest_us", ing}, {"serve.wait_ms", wait}, {"serve.watch_lag_us", lag},
		{"core.locate_us", loc}, {"core.detect_us", det}, {"client.send_us", send},
		{"gen.lag_ms", genLag}, {"latency_ms untraced slices", untr}, {"latency_ms traced slices", tr},
	} {
		fmt.Printf("%s: n=%d p50=%.4f p%.2f=%.4f\n", d.name, d.d.N, d.d.Median, d.d.TailPct, d.d.Tail)
	}
	tracers := append([]*tracer{r.gen, rep}, r.inst.watchT...)
	if updT != nil {
		tracers = append(tracers, updT)
	}
	r.reportSpans(tracers)

	out := []metric{
		{"serve.latency_p99_ms", "ms", tail},
		{"serve.ingest_us_p50", "us", ing.Median},
		{"serve.ingest_us_p99", "us", ing.Tail},
		{"serve.wait_ms_p50", "ms", wait.Median},
		{"serve.shed_ratio", "ratio", shedRatio},
		{"serve.reports_per_estimate", "ratio", perEst},
		{"serve.watch_lag_us_p50", "us", lag.Median},
		{"serve.watch_drops", "count", drops},
		{"serve.evict_us_p50", "us", ev.Median},
		{"serve.rehydrate_us_p50", "us", rh.Median},
		{"serve.snapshot_bytes", "bytes", float64(len(pr.snapBytes))},
		{"core.locate_us_p50", "us", loc.Median},
		{"core.locate_us_p99", "us", loc.Tail},
		{"core.detect_us_p50", "us", det.Median},
		{"core.update_ms_p50", "ms", upd.Median},
		{"core.update_alloc_mb", "MB", updAllocMB},
		{"core.refresh_ms_p50", "ms", refresh.Median},
		{"snap.encode_us_p50", "us", enc.Median},
		{"snap.decode_us_p50", "us", dec.Median},
		{"store.put_us_p50", "us", put.Median},
		{"store.get_us_p50", "us", get.Median},
		{"track.step_ns_p50", "ns", trk.Median},
		{"client.send_us_p50", "us", send.Median},
		{"api.decode_line_us_p50", "us", decLine.Median},
		{"api.encode_estimate_us_p50", "us", encEst.Median},
		{"gc.cycles", "count", float64(pr.rt1.gcCycles - pr.rt0.gcCycles)},
		{"gc.pause_ms_total", "ms", float64(pr.rt1.pauseNs-pr.rt0.pauseNs) / 1e6},
		{"gc.alloc_mb_per_s", "MB/s", float64(pr.rt1.allocBytes-pr.rt0.allocBytes) / 1e6 / timed},
		{"gen.lag_ms_p99", "ms", genLag.Tail},
		{"gen.trace_overhead_pct", "%", overhead},
	}
	return append(out, shares...), failures
}

// replaySet picks the served present estimates whose Locate is replayed:
// those covering traced paced batches first, then an even sample of the
// rest, at most maxLocateReplays in all.
func (r *runner) replaySet(a *analysis) []*recvRec {
	seen := map[*recvRec]bool{}
	var out []*recvRec
	take := func(e *recvRec) {
		if e.present && !seen[e] && len(out) < maxLocateReplays {
			seen[e] = true
			out = append(out, e)
		}
	}
	stride := len(a.joined)/(maxLocateReplays*2/3) + 1
	for i := 0; i < len(a.joined); i += stride {
		take(a.joined[i].est)
	}
	all := r.received()
	stride = len(all)/maxLocateReplays + 1
	for i := 0; i < len(all); i += stride {
		take(all[i])
	}
	return out
}

// latestModel is the Model zone z serves with at the end of the run.
func (r *runner) latestModel(z int32) *core.Model {
	ep := r.inst.zs[z].epochs
	return ep[len(ep)-1].m
}

// presentShare is the share of received estimates that localized.
func (r *runner) presentShare() float64 {
	all := r.received()
	if len(all) == 0 {
		return 0
	}
	n := 0
	for _, e := range all {
		if e.present {
			n++
		}
	}
	return float64(n) / float64(len(all))
}

// timeCalls times f up to maxCodecReplays times within replayBudget and
// returns the durations in µs.
func (r *runner) timeCalls(t *tracer, name uint8, f func() error) []float64 {
	var out []float64
	stop := r.now() + int64(replayBudget)
	for i := 0; i < maxCodecReplays && r.now() < stop; i++ {
		t0 := r.now()
		if err := f(); err != nil {
			return out
		}
		t1 := r.now()
		t.add(name, -1, 0, int64(i), t0, t1)
		out = append(out, float64(t1-t0)/1e3)
	}
	return out
}

func (r *runner) residencyReplay(rep *tracer, zs *zoneState) (evictUs, rehydUs []float64, err error) {
	sys, err := core.RestoreSystem(zs.sys.ExportState())
	if err != nil {
		return nil, nil, fmt.Errorf("residency replay: %w", err)
	}
	svc, err := tafloc.NewService(tafloc.WithSnapshotStore(tafloc.NewMemStore()))
	if err != nil {
		return nil, nil, err
	}
	const spare = "spare"
	if err := svc.AddZone(spare, sys); err != nil {
		return nil, nil, err
	}
	stop := r.now() + int64(replayBudget)
	for i := 0; i < maxCodecReplays && r.now() < stop; i++ {
		t0 := r.now()
		if err := svc.EvictZone(spare); err != nil {
			return evictUs, rehydUs, fmt.Errorf("evict replay: %w", err)
		}
		t1 := r.now()
		if err := svc.RehydrateZone(spare); err != nil {
			return evictUs, rehydUs, fmt.Errorf("rehydrate replay: %w", err)
		}
		t2 := r.now()
		rep.add(spEvict, -1, 0, int64(i), t0, t1)
		rep.add(spRehydrate, -1, 0, int64(i), t1, t2)
		evictUs = append(evictUs, float64(t1-t0)/1e3)
		rehydUs = append(rehydUs, float64(t2-t1)/1e3)
	}
	return evictUs, rehydUs, nil
}

// trackReplay folds zone zs's received present fixes through a fresh
// trajectory filter, timing chunks of calls, and returns ns per step.
func (r *runner) trackReplay(rep *tracer, zs *zoneState) []float64 {
	tr, err := track.NewTracker(track.DefaultOptions())
	if err != nil {
		return nil
	}
	var fixes []recvRec
	for _, e := range zs.recv {
		if e.present {
			fixes = append(fixes, e)
		}
	}
	base := r.epoch.Round(0)
	var out []float64
	for i := 0; i+chunk <= len(fixes); i += chunk {
		t0 := r.now()
		for _, e := range fixes[i : i+chunk] {
			tr.Observe(e.point, base.Add(time.Duration(e.pub)))
		}
		t1 := r.now()
		rep.add(spTrack, -1, 0, int64(i), t0, t1)
		out = append(out, float64(t1-t0)/chunk)
	}
	return out
}

// apiReplay times the JSON decode of generated NDJSON report lines and
// the JSON encode of received estimates, in µs.
func (r *runner) apiReplay(rep *tracer, zs *zoneState) (decUs, encUs []float64) {
	var lines [][]byte
	for k := 0; k < len(zs.dep.batches) && k < maxCodecReplays; k++ {
		b, err := json.Marshal(zs.dep.batches[k])
		if err != nil {
			return nil, nil
		}
		lines = append(lines, b)
	}
	for i, line := range lines {
		var out []api.Report
		t0 := r.now()
		if err := json.Unmarshal(line, &out); err != nil {
			return nil, nil
		}
		t1 := r.now()
		rep.add(spAPIDecode, -1, 0, int64(i), t0, t1)
		decUs = append(decUs, float64(t1-t0)/1e3)
	}
	base := r.epoch.Round(0)
	for i := 0; i < len(zs.recv) && i < maxCodecReplays; i++ {
		e := zs.recv[i]
		est := api.Estimate{
			Zone: zs.id, Seq: uint64(i + 1), Present: e.present, Cell: int(e.cell), Point: e.point,
			Distance: e.dist, Reports: e.reports, Time: base.Add(time.Duration(e.pub)),
		}
		t0 := r.now()
		if _, err := json.Marshal(est); err != nil {
			return decUs, nil
		}
		t1 := r.now()
		rep.add(spAPIEncode, -1, 0, int64(i), t0, t1)
		encUs = append(encUs, float64(t1-t0)/1e3)
	}
	return decUs, encUs
}

// idleUpdates runs System.Update on an idle copy of zone zs's System
// and returns each call's ms and the mean MB allocated per call.
func (r *runner) idleUpdates(rep *tracer, zs *zoneState) ([]float64, float64, error) {
	sys, err := core.RestoreSystem(zs.sys.ExportState())
	if err != nil {
		return nil, 0, fmt.Errorf("idle update copy: %w", err)
	}
	var ms []float64
	var allocated uint64
	var before, after runtime.MemStats
	for i := 0; i < idleUpdates; i++ {
		runtime.ReadMemStats(&before)
		t0 := r.now()
		if _, err := sys.Update(zs.dep.refCols, zs.dep.vacant45); err != nil {
			return ms, 0, fmt.Errorf("idle update: %w", err)
		}
		t1 := r.now()
		runtime.ReadMemStats(&after)
		rep.add(spUpdateIdle, -1, 0, int64(i), t0, t1)
		ms = append(ms, float64(t1-t0)/1e6)
		allocated += after.TotalAlloc - before.TotalAlloc
	}
	return ms, float64(allocated) / idleUpdates / 1e6, nil
}

// reportSpans prints the self-time table and writes every span out.
func (r *runner) reportSpans(tracers []*tracer) {
	fmt.Println("self time by span (ms, from the traced run):")
	for _, s := range selfTimes(tracers) {
		var gs []string
		for g := range s.Goroutines {
			gs = append(gs, g)
		}
		sort.Strings(gs)
		if len(gs) > 3 {
			gs = append(gs[:3], "...")
		}
		fmt.Printf("  %-20s calls=%-8d total=%-10.3f self=%-10.3f goroutines=%v\n",
			s.Name, s.Calls, float64(s.TotalNs)/1e6, float64(s.SelfNs)/1e6, gs)
	}
	dropped := 0
	for _, t := range tracers {
		dropped += t.dropped
	}
	path := filepath.Join(".bench_build", "trace", r.w.name+".tsv")
	if err := writeSpans(path, tracers); err != nil {
		fmt.Fprintf(os.Stderr, "write spans: %v\n", err)
		return
	}
	fmt.Printf("spans written to %s (%d dropped over the per-goroutine cap)\n", path, dropped)
}
