package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"time"

	"tafloc/internal/api"
	"tafloc/internal/core"
)

// The service defaults every workload runs with, which the offline
// rebuild of served estimates must mirror.
const (
	window       = 8 // live-window length
	detThreshold = 1 // presence threshold, dB
)

// Share of a run's seconds given to each timed phase.
const (
	pacedShare = 0.4
	satShare   = 0.6
)

// setupReps is how many times an untraced run sets the service up;
// setup_s is the median.
const setupReps = 25

// drainWait bounds how long a paced batch may take to be covered by a
// received estimate after the paced phase ends.
const drainWait = 2 * time.Second

// swapSlack is how long before its publish time a served estimate may
// have loaded its Model, for telling which Models it may have used.
const swapSlack = int64(200 * time.Millisecond)

// traceSlice is the length of the alternating traced and untraced
// slices of a traced run's paced phase.
const traceSlice = int64(250 * time.Millisecond)

// latWindow is the length of the paced-phase windows the tail latency
// is taken over; the reported tail is the median window's.
const latWindow = int64(2 * time.Second)

type metric struct {
	name, unit string
	value      float64
}

type result struct {
	correct           bool
	attempted, failed int
	metrics           []metric
}

// phaseRun is what one timed run measured, for the metric computations.
type phaseRun struct {
	pacedStart, pacedEnd, drainEnd int64
	satStart, satEnd               int64
	tot0, tot1                     totals          // saturation start and end
	rt0, rt1                       runtimeCounters // over the whole timed span
	rtSat0                         runtimeCounters // at the start of saturation
	heap                           []heapSample
	updates                        []update
	setup                          []float64
	final                          map[string]api.ZoneStats // after the service stopped
	snapBytes                      []byte                   // one zone's snapshot (traced run)
}

func run(w *workload, seed int64, seconds int, traced bool) (*result, error) {
	paced := time.Duration(float64(seconds) * pacedShare * float64(time.Second))
	sat := time.Duration(float64(seconds) * satShare * float64(time.Second))
	n := int(pacedRate * paced.Seconds())
	deps, err := generate(w, seed)
	if err != nil {
		return nil, fmt.Errorf("generate inputs: %w", err)
	}
	r := &runner{w: w, deps: deps, epoch: time.Now()}
	for z := 0; z < w.zones; z++ {
		r.links = append(r.links, deps[z%w.deps].layout.M())
	}
	recvCap := n/w.zones + 1024
	var pr phaseRun
	var failures []string

	reps := setupReps
	if traced {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		inst, err := r.setup(traced, recvCap)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		pr.setup = append(pr.setup, time.Since(t0).Seconds())
		if i < reps-1 {
			if _, err := inst.close(); err != nil {
				return nil, fmt.Errorf("setup teardown: %w", err)
			}
		}
	}
	inst := r.inst
	r.log = slices.Grow(r.log, n)
	if traced {
		r.gen = newTracer("generator")
	}
	runtime.GC()

	stopSampler, heapCh := make(chan struct{}), make(chan []heapSample, 1)
	go r.sampler(stopSampler, heapCh)
	pr.rt0 = readRuntime()

	// Paced (open-loop) phase, with LoLi-IR refreshes beside it on the
	// refresh workload.
	var updT *tracer
	stopUpd, updDone := make(chan struct{}), make(chan error, 1)
	if w.refreshEvery > 0 {
		if traced {
			updT = newTracer("updater")
		}
		go func() {
			u, err := r.updater(stopUpd, updT)
			pr.updates = u
			updDone <- err
		}()
	}
	slice := int64(0)
	if traced {
		slice = traceSlice
	}
	pr.pacedStart, pr.pacedEnd = r.paced(n, slice)
	if w.refreshEvery > 0 {
		close(stopUpd)
		if err := <-updDone; err != nil {
			failures = append(failures, err.Error())
		}
	}
	if err := r.settle(); err != nil {
		return nil, err
	}
	r.waitCovered(time.Now().Add(drainWait))
	pr.drainEnd = r.now()

	// Saturation (closed-loop) phase.
	pr.tot0, pr.rtSat0 = r.totals(), readRuntime()
	pr.satStart = r.now()
	r.saturate(sat, traced)
	pr.satEnd = r.now()
	pr.tot1, pr.rt1 = r.totals(), readRuntime()
	close(stopSampler)
	pr.heap = <-heapCh

	if err := r.settle(); err != nil {
		return nil, err
	}
	if err := r.waitConserved(time.Now().Add(10 * time.Second)); err != nil {
		failures = append(failures, err.Error())
	}
	if traced {
		if pr.snapBytes, err = inst.svc.SnapshotZone(inst.zs[0].id); err != nil {
			failures = append(failures, fmt.Sprintf("SnapshotZone: %v", err))
		}
	}
	sum, err := inst.close()
	pr.final = inst.svc.Stats()
	if inst.stream != nil {
		switch {
		case err != nil:
			failures = append(failures, fmt.Sprintf("report stream close: %v", err))
		case sum.Accepted+sum.Shed != inst.sentReports:
			failures = append(failures, fmt.Sprintf("stream trailer: accepted %d + shed %d != %d reports sent",
				sum.Accepted, sum.Shed, inst.sentReports))
		default:
			fmt.Printf("check stream trailer: accepted %d + shed %d == %d reports sent\n", sum.Accepted, sum.Shed, inst.sentReports)
		}
	}

	a := r.analyze(&pr)
	failures = append(failures, a.failures...)
	res := &result{attempted: a.attempted, failed: a.failed}
	if traced {
		lm, lf := r.layerMetrics(&pr, a, updT)
		res.metrics = lm
		failures = append(failures, lf...)
	} else {
		res.metrics = r.endToEnd(&pr, a)
	}
	for _, f := range failures {
		fmt.Printf("CHECK FAILED: %s\n", f)
	}
	res.correct = len(failures) == 0
	return res, nil
}

// analysis is what the offline join and checks derived from one run.
type analysis struct {
	attempted, failed int
	latMs             []float64 // paced batches, untraced slices (all, in an untraced run)
	latTracedMs       []float64 // paced batches in traced slices
	latWindows        [][]float64
	lagMs             []float64 // generator lateness of paced sends
	errM              []float64 // paced present estimates
	// Traced paced batches joined to their covering estimate.
	joined   []joinedBatch
	failures []string
}

type joinedBatch struct {
	rec *sendRec
	est *recvRec
}

func (r *runner) analyze(pr *phaseRun) *analysis {
	a := &analysis{attempted: r.satAttempts - r.satShed, failed: r.satErrors}
	inst := r.inst
	perZone := make([][]*sendRec, len(inst.zs))
	for i := range r.log {
		rec := &r.log[i]
		if rec.phase != phPaced {
			continue
		}
		a.attempted++
		a.lagMs = append(a.lagMs, float64(rec.sent-rec.due)/1e6)
		if rec.status != stAccepted {
			a.failed++
			continue
		}
		perZone[rec.zone] = append(perZone[rec.zone], rec)
	}
	a.latWindows = make([][]float64, (pr.pacedEnd-pr.pacedStart)/latWindow+1)
	for z, recs := range perZone {
		zs := inst.zs[z]
		L := uint64(r.links[z])
		var reports []uint64
		for _, e := range zs.recv {
			if e.recv > pr.drainEnd {
				break
			}
			reports = append(reports, e.reports)
		}
		need := make([]uint64, len(recs))
		for i, rec := range recs {
			need[i] = uint64(rec.cum) * L
		}
		for i, j := range cover(need, reports) {
			if j < 0 {
				a.failed++
				continue
			}
			rec, est := recs[i], &zs.recv[j]
			ms := float64(est.recv-rec.due) / 1e6
			if rec.traced {
				a.latTracedMs = append(a.latTracedMs, ms)
				a.joined = append(a.joined, joinedBatch{rec: rec, est: est})
				continue
			}
			a.latMs = append(a.latMs, ms)
			w := (rec.due - pr.pacedStart) / latWindow
			a.latWindows[w] = append(a.latWindows[w], ms)
		}
	}
	// Accuracy of paced estimates, and the report-count invariant.
	for z, zs := range inst.zs {
		L := r.links[z]
		for _, e := range zs.recv {
			if int(e.reports)%L != 0 || int(e.reports)/L > zs.acc.n {
				a.failures = append(a.failures, fmt.Sprintf("zone %s: estimate covers %d reports, not a whole number of its %d accepted batches",
					zs.id, e.reports, zs.acc.n))
				break
			}
			j := int(e.reports)/L - 1
			if !e.present || j < 0 {
				continue
			}
			if p, ph := zs.acc.at(j); ph == phPaced {
				a.errM = append(a.errM, e.point.Dist(zs.dep.truth[p]))
			}
		}
	}
	if len(a.latMs)+len(a.latTracedMs) == 0 {
		a.failures = append(a.failures, "no paced batch was covered by a received estimate")
	}
	a.failures = append(a.failures, r.checkParity()...)
	if r.w.refreshEvery > 0 {
		a.failures = append(a.failures, r.checkRefreshAccuracy()...)
	}
	return a
}

// paritySamples is how many served estimates each run replays offline.
const paritySamples = 400

// checkParity replays a sample of served estimates: rebuilt from the
// accepted batches, the live vector must give the served presence and
// cell under a Model the zone may have been using.
func (r *runner) checkParity() []string {
	all := r.received()
	if len(all) == 0 {
		return []string{"parity: no estimate received"}
	}
	stride := (len(all) + paritySamples - 1) / paritySamples
	sc := core.NewScratch()
	checked := 0
	for i := 0; i < len(all); i += stride {
		e := all[i]
		if ok, why := r.parity(e, sc); !ok {
			return []string{fmt.Sprintf("parity: zone %s estimate with %d reports: %s",
				r.inst.zs[e.zone].id, e.reports, why)}
		}
		checked++
	}
	fmt.Printf("check parity: %d of %d served estimates match Model.Detect/Locate on the rebuilt window mean\n", checked, len(all))
	return nil
}

// received returns every estimate the watchers received, zone by zone.
func (r *runner) received() []*recvRec {
	var all []*recvRec
	for _, zs := range r.inst.zs {
		for i := range zs.recv {
			all = append(all, &zs.recv[i])
		}
	}
	return all
}

// rebuild returns the live vector behind a served estimate.
func (r *runner) rebuild(e *recvRec) []float64 {
	zs := r.inst.zs[e.zone]
	L := r.links[e.zone]
	y := make([]float64, L)
	windowMean(y, zs.dep.vecs, &zs.acc, int(e.reports)/L, window)
	return y
}

// models returns the Models zone z may have served an estimate
// published at pub with.
func (r *runner) models(z int32, pub int64) []*core.Model {
	var out []*core.Model
	for _, ep := range r.inst.zs[z].epochs {
		if ep.from <= pub && ep.to >= pub-swapSlack {
			out = append(out, ep.m)
		}
	}
	return out
}

func (r *runner) parity(e *recvRec, sc *core.Scratch) (bool, string) {
	y := r.rebuild(e)
	why := "no candidate Model"
	for _, m := range r.models(e.zone, e.pub) {
		present, _ := m.Detect(y, detThreshold)
		if present != e.present {
			why = fmt.Sprintf("served present=%v, replay %v", e.present, present)
			continue
		}
		if !present {
			return true, ""
		}
		loc, err := m.Locate(y, sc)
		if err != nil {
			why = err.Error()
			continue
		}
		// Equal cells, or a tie in match distance the summation order of
		// the window mean may break either way.
		if loc.Cell == int(e.cell) || math.Abs(loc.Distance-e.dist) <= 1e-9*math.Max(1, math.Abs(e.dist)) {
			return true, ""
		}
		why = fmt.Sprintf("served cell %d, replay cell %d", e.cell, loc.Cell)
	}
	return false, why
}

// checkRefreshAccuracy checks the paper's time-adaptive claim through
// the service: after a zone's first LoLi-IR refresh its median error is
// below the stale day-0 database's error on the same day-45 traffic.
func (r *runner) checkRefreshAccuracy() []string {
	var out []string
	for z, zs := range r.inst.zs {
		if len(zs.epochs) < 2 {
			out = append(out, fmt.Sprintf("refresh: zone %s was never refreshed", zs.id))
			continue
		}
		first := zs.epochs[1]
		L := r.links[z]
		var stale, fresh []float64
		for _, e := range zs.recv {
			if !e.present || e.reports == 0 {
				continue
			}
			p, _ := zs.acc.at(int(e.reports)/L - 1)
			d := e.point.Dist(zs.dep.truth[p])
			switch {
			case e.pub < first.from:
				stale = append(stale, d)
			case e.pub > zs.epochs[0].to+swapSlack:
				fresh = append(fresh, d)
			}
		}
		if len(stale) < 20 || len(fresh) < 20 {
			out = append(out, fmt.Sprintf("refresh: zone %s has %d stale and %d refreshed estimates, need 20 each",
				zs.id, len(stale), len(fresh)))
			continue
		}
		s, f := medianOf(stale), medianOf(fresh)
		if f >= s {
			out = append(out, fmt.Sprintf("refresh: zone %s median error %.3f m after refresh, %.3f m before", zs.id, f, s))
			continue
		}
		fmt.Printf("check refresh accuracy: zone %s median error %.3f m stale (n=%d) -> %.3f m refreshed (n=%d)\n",
			zs.id, s, len(stale), f, len(fresh))
	}
	return out
}

func (r *runner) endToEnd(pr *phaseRun, a *analysis) []metric {
	lat := summarize(a.latMs, 99)
	tail, tailPct, latN := windowTail(a.latWindows, 99)
	lag := summarize(a.lagMs, 99)
	satSec := float64(pr.satEnd-pr.satStart) / 1e9
	satRep, satEst := pr.tot1.received-pr.tot0.received, pr.tot1.estimates-pr.tot0.estimates
	repS, estS := float64(satRep)/satSec, float64(satEst)/satSec
	heapPeak, heapN := peakBetween(pr.heap, pr.pacedStart, pr.satEnd)
	fmt.Printf("setup: %d repetitions, seconds %v\n", len(pr.setup), fmtList(pr.setup))
	fmt.Printf("latency: %d paced batches p50=%.4f ms p%.2f=%.4f ms; median over %d %v windows of the window p%.2f=%.4f ms\n",
		lat.N, lat.Median, lat.TailPct, lat.Tail, latN, time.Duration(latWindow), tailPct, tail)
	fmt.Printf("generator lateness: n=%d p50=%.4f ms p%.2f=%.4f ms\n", lag.N, lag.Median, lag.TailPct, lag.Tail)
	fmt.Printf("accuracy: n=%d present estimates, median error %.4f m\n", len(a.errM), medianOf(a.errM))
	fmt.Printf("heap in use: peak %.2f MB over %d samples taken every 10ms through the timed phases\n", heapPeak/1e6, heapN)
	fmt.Printf("saturation: %.3f s, %d attempts, %d shed, %d reports accepted and %d estimates published: %.0f reports/s, %.0f estimates/s\n",
		satSec, r.satAttempts, r.satShed, satRep, satEst, repS, estS)
	if len(pr.updates) > 0 {
		var ms []float64
		for _, u := range pr.updates {
			ms = append(ms, float64(u.end-u.start)/1e6)
		}
		d := summarize(ms, 99)
		fmt.Printf("refresh: n=%d System.Update under paced load, p50=%.3f ms p%.2f=%.3f ms\n", d.N, d.Median, d.TailPct, d.Tail)
	}
	delivered := 1.0
	if a.attempted > 0 {
		delivered = 1 - float64(a.failed)/float64(a.attempted)
	}
	return []metric{
		{"setup_s", "s", medianOf(pr.setup)},
		{"latency_p50_ms", "ms", lat.Median},
		{"estimates_per_s", "1/s", estS},
		{"reports_per_s", "1/s", repS},
		{"error_p50_m", "m", medianOf(a.errM)},
		{"delivered_ratio", "ratio", delivered},
		{"heap_peak_mb", "MB", heapPeak / 1e6},
	}
}

// windowTail returns the median over the paced latency windows of each
// window's tail latency (at percentile want, lowered by the percentile
// rule where a window is small), the lowest percentile used, and how
// many windows it took. Windows with fewer than 2 × minTail samples are
// left out. A stall of the host lasts a window or two, so the median
// window's tail repeats from run to run where the tail of the whole
// phase does not.
func windowTail(windows [][]float64, want float64) (tail, pct float64, n int) {
	var tails []float64
	pct = want
	for _, w := range windows {
		if len(w) < 2*minTail {
			continue
		}
		d := summarize(w, want)
		tails = append(tails, d.Tail)
		pct = math.Min(pct, d.TailPct)
	}
	return medianOf(tails), pct, len(tails)
}

// peakBetween returns the largest heap sample taken in [start, end] and
// how many samples that range holds.
func peakBetween(s []heapSample, start, end int64) (float64, int) {
	peak, n := int64(0), 0
	for _, x := range s {
		if x.t >= start && x.t <= end {
			peak = max(peak, x.bytes)
			n++
		}
	}
	return float64(peak), n
}

func fmtList(v []float64) string {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return fmt.Sprintf("%.4f", s)
}
