package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"tafloc"
	"tafloc/client"
	"tafloc/internal/api"
	"tafloc/internal/core"
	"tafloc/internal/geom"
	"tafloc/taflocerr"
)

// Batch outcomes.
const (
	stPending  uint8 = iota // sent on the stream, ack not yet read
	stAccepted              // taken into the zone's queue
	stShed                  // queue_full
	stRejected              // failed validation
	stError                 // any other error
)

// Phases a batch can be sent in.
const (
	phWarm uint8 = iota
	phPaced
	phSat
)

// backoff is how long the closed-loop generator sleeps after queue_full.
// It is the Go runtime's timer resolution on Linux: shorter sleeps last
// about a millisecond anyway.
const backoff = time.Millisecond

// In the saturation phase a traced run records spans for one send in
// satTraceEvery, and every run keeps one received estimate in
// satKeepEvery (all are counted); the rest of the run keeps everything.
const (
	satTraceEvery = 8
	satKeepEvery  = 16
)

// streamWindow is how many report-stream lines the closed-loop client
// keeps in flight: fewer than the zone's queue holds, so it is the acks,
// not queue_full, that pace it.
const streamWindow = 128

// sendRec is one batch of the warm-up or paced phase.
type sendRec struct {
	zone   int32
	pidx   int32 // index into the zone's deployment pool
	phase  uint8
	status uint8
	traced bool
	due    int64 // ns since epoch the batch was due
	sent   int64 // ns since epoch the send call started
	done   int64 // ns since epoch it returned
	cum    int64 // accepted batches of the zone through this one
}

// pendingSend is one warm-up or paced line sent on the report stream,
// awaiting its ack. Saturation lines are not kept: the stream has one
// zone, whose pool index advances by one per line.
type pendingSend struct {
	zone, pidx int32
	phase      uint8
	rec        int32 // index in the runner's log, -1 for saturation sends
}

// recvRec is one estimate a watcher received.
type recvRec struct {
	recv    int64 // ns since epoch
	pub     int64 // Estimate.Time, ns since epoch
	reports uint64
	cell    int32
	present bool
	point   geom.Point
	dist    float64
	zone    int32
}

// modelEpoch is a Model a zone served with and the interval, in ns since
// epoch, in which it may have been in use.
type modelEpoch struct {
	m        *core.Model
	from, to int64
}

type zoneState struct {
	id     string
	dep    *deployment
	sys    *core.System // the System the zone was added with
	next   int          // next pool index to send
	acc    accepted     // every accepted batch, in order
	epochs []modelEpoch // written by the updater, read after it exits

	recv       []recvRec // owned by the watcher until it exits
	nrecv      int       // estimates received, kept or not
	maxReports atomic.Uint64
}

// instance is one running service with its zones, watchers and, on the
// wire workload, its HTTP server, client stream and ack tee.
type instance struct {
	svc    *tafloc.Service
	ctx    context.Context
	cancel context.CancelFunc
	zs     []*zoneState
	stops  []func()
	wg     sync.WaitGroup
	watchT []*tracer

	srv         *http.Server
	srvDone     chan struct{}
	stream      *client.ReportStream
	tee         *ackTee
	pending     []pendingSend // warm-up and paced lines, by line number - 1
	lines       int32         // lines sent
	satFrom     int32         // first saturation line (0 = none yet)
	satPidx0    int32         // its pool index; saturation lines follow the pool
	settled     int32         // lines whose ack has been read
	sentReports uint64
}

type runner struct {
	w     *workload
	deps  []*deployment // the workload's generated inputs
	epoch time.Time
	inst  *instance
	phase atomic.Uint32
	log   []sendRec // warm-up and paced batches
	gen   *tracer   // generator spans (traced run only)
	links []int     // links per zone

	// Saturation-phase accounting, kept as counters instead of a log.
	satAttempts, satShed, satErrors int
	satSendNs                       int64
	tracedSendUs                    []float64 // durations of traced sends
}

func (r *runner) now() int64 { return int64(time.Since(r.epoch)) }

// toNs converts a wall-clock time into ns since epoch.
func (r *runner) toNs(t time.Time) int64 { return int64(t.Sub(r.epoch.Round(0))) }

// setup builds and starts one service instance and waits until every
// zone has published an estimate. It is the work setup_s times.
func (r *runner) setup(watchTraced bool, recvCap int) (*instance, error) {
	w := r.w
	r.log = r.log[:0]
	r.phase.Store(uint32(phWarm))
	ctx, cancel := context.WithCancel(context.Background())
	inst := &instance{ctx: ctx, cancel: cancel}
	svc, err := tafloc.NewService()
	if err != nil {
		cancel()
		return nil, err
	}
	inst.svc = svc
	perDep := (w.zones + w.deps - 1) / w.deps
	for z := 0; z < w.zones; z++ {
		dep := r.deps[z%w.deps]
		sys, err := tafloc.Open(dep.layout, dep.survey, dep.vacant)
		if err != nil {
			cancel()
			return nil, err
		}
		zs := &zoneState{
			id:     fmt.Sprintf("zone-%04d", z),
			dep:    dep,
			sys:    sys,
			next:   (z / w.deps) * w.pool / perDep,
			acc:    accepted{pool: int32(len(dep.batches))},
			epochs: []modelEpoch{{m: sys.Model(), from: -1 << 62, to: 1 << 62}},
			recv:   make([]recvRec, 0, recvCap),
		}
		if err := svc.AddZone(zs.id, sys); err != nil {
			cancel()
			return nil, err
		}
		inst.zs = append(inst.zs, zs)
	}
	if !w.wire {
		for z, zs := range inst.zs {
			ch, stop, err := svc.Watch(zs.id)
			if err != nil {
				cancel()
				return nil, err
			}
			inst.stops = append(inst.stops, stop)
			r.startWatcher(inst, z, ch, watchTraced)
		}
	}
	if err := svc.Start(ctx); err != nil {
		cancel()
		return nil, err
	}
	if w.wire {
		if err := r.startWire(inst, watchTraced); err != nil {
			inst.close()
			return nil, err
		}
	}
	r.inst = inst
	// Warm-up: one batch per zone, then wait for every zone's first estimate.
	for z := range inst.zs {
		for r.send(int32(z), phWarm, r.now(), false) == stShed {
			time.Sleep(time.Millisecond)
		}
	}
	if err := r.settle(); err != nil {
		inst.close()
		return nil, err
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		ready := true
		for _, zs := range inst.zs {
			if w.wire {
				ready = zs.maxReports.Load() > 0
			} else {
				_, ready = svc.Position(zs.id)
			}
			if !ready {
				break
			}
		}
		if ready {
			return inst, nil
		}
		if time.Now().After(deadline) {
			inst.close()
			return nil, errors.New("warm-up: not every zone published an estimate within 10s")
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// startWatcher records the estimates the zone's watch channel delivers.
func (r *runner) startWatcher(inst *instance, z int, ch <-chan api.Estimate, traced bool) {
	zs := inst.zs[z]
	var t *tracer
	if traced {
		t = newTracer(fmt.Sprintf("watch-%d", z))
		inst.watchT = append(inst.watchT, t)
	}
	inst.wg.Add(1)
	go func() {
		defer inst.wg.Done()
		for e := range ch {
			if e.Final {
				continue
			}
			recv := r.now()
			zs.nrecv++
			zs.maxReports.Store(e.Reports)
			if uint8(r.phase.Load()) == phSat && zs.nrecv%satKeepEvery != 0 {
				continue
			}
			rc := recvRec{
				recv: recv, pub: r.toNs(e.Time), reports: e.Reports, cell: int32(e.Cell),
				present: e.Present, point: e.Point, dist: e.Distance, zone: int32(z),
			}
			zs.recv = append(zs.recv, rc)
			t.add(spWatch, -1, int32(z), int64(e.Reports), rc.pub, rc.recv)
		}
	}()
}

// startWire serves the service on loopback and opens the SSE watch and
// the NDJSON report stream for the single zone.
func (r *runner) startWire(inst *instance, traced bool) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	inst.srv = &http.Server{Handler: inst.svc.Handler()}
	inst.srvDone = make(chan struct{})
	go func() {
		defer close(inst.srvDone)
		_ = inst.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	inst.tee = &ackTee{}
	cli, err := client.New("http://"+ln.Addr().String(), client.WithHTTPClient(newTeeClient(inst.tee)))
	if err != nil {
		return err
	}
	zs := inst.zs[0]
	ch, err := cli.Watch(inst.ctx, zs.id)
	if err != nil {
		return err
	}
	r.startWatcher(inst, 0, ch, traced)
	inst.stream, err = cli.ReportStream(inst.ctx, zs.id)
	return err
}

// close stops the instance and waits for every goroutine it started. On
// the wire workload it returns the report stream's trailer.
func (inst *instance) close() (*client.StreamSummary, error) {
	var sum *client.StreamSummary
	var err error
	if inst.stream != nil {
		s, cerr := inst.stream.Close()
		sum, err = &s, cerr
	}
	// Stopping the service ends every watch with a final event; give the
	// watchers a moment to read what is still in flight before the
	// connections are torn down.
	inst.svc.Stop()
	watchers := make(chan struct{})
	go func() {
		inst.wg.Wait()
		close(watchers)
	}()
	select {
	case <-watchers:
	case <-time.After(2 * time.Second):
	}
	inst.cancel()
	if inst.srv != nil {
		inst.srv.Close()
		<-inst.srvDone
	}
	inst.svc.Wait()
	<-watchers
	for _, stop := range inst.stops {
		stop()
	}
	return sum, err
}

// send offers the zone's next pool batch to the service. Warm-up and
// paced sends are logged; saturation sends only counted. It returns
// the outcome known at once (stPending on the wire).
func (r *runner) send(z int32, phase uint8, due int64, traced bool) uint8 {
	inst := r.inst
	zs := inst.zs[z]
	pidx := int32(zs.next)
	zs.next = (zs.next + 1) % len(zs.dep.batches)
	tCopy := r.now()
	// The service owns an accepted slice, so it gets a copy.
	batch := append([]api.Report(nil), zs.dep.batches[pidx]...)
	name := spIngest
	status := stPending
	var cum int64
	sent := r.now()
	if inst.stream != nil {
		name = spClientSend
		inst.lines++
		switch {
		case phase != phSat:
			inst.pending = append(inst.pending, pendingSend{zone: z, pidx: pidx, phase: phase, rec: int32(len(r.log))})
		case inst.satFrom == 0:
			inst.satFrom, inst.satPidx0 = inst.lines, pidx
		}
		cum = int64(inst.lines)
		inst.sentReports += uint64(len(batch))
		if err := inst.stream.Send(batch); err != nil {
			status = stError
		}
	} else {
		err := inst.svc.Ingest(zs.id, batch)
		switch {
		case err == nil:
			status = stAccepted
			zs.acc.add(pidx, phase)
			cum = int64(zs.acc.n)
		case errors.Is(err, taflocerr.ErrQueueFull):
			status = stShed
		case errors.Is(err, taflocerr.ErrBadLink):
			status = stRejected
		default:
			status = stError
		}
	}
	done := r.now()
	if traced {
		r.tracedSendUs = append(r.tracedSendUs, float64(done-sent)/1e3)
		child := r.gen.add(name, -1, z, cum, sent, done)
		root := r.gen.add(spGenSend, -1, z, cum, tCopy, done)
		r.gen.setParent(child, root)
	}
	if phase == phSat {
		r.satSendNs += done - sent
		if status == stError || status == stRejected {
			r.satErrors++
		}
		return status
	}
	r.log = append(r.log, sendRec{
		zone: z, pidx: pidx, phase: phase, status: status, traced: traced,
		due: due, sent: sent, done: done, cum: cum,
	})
	return status
}

// settle makes every send's outcome final. In process it is known at
// once; on the wire the stream is synced and the acks read in order.
func (r *runner) settle() error {
	inst := r.inst
	if inst.stream == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(inst.ctx, 10*time.Second)
	defer cancel()
	if err := inst.stream.Sync(ctx); err != nil {
		return fmt.Errorf("report stream sync: %w", err)
	}
	for ; inst.settled < inst.lines; inst.settled++ {
		line := inst.settled + 1
		var p pendingSend
		if int(line) <= len(inst.pending) {
			p = inst.pending[line-1]
		} else {
			pool := int32(len(inst.zs[0].dep.batches))
			p = pendingSend{pidx: (inst.satPidx0 + line - inst.satFrom) % pool, phase: phSat, rec: -1}
		}
		status := inst.tee.statusOf(line)
		var cum int64
		if status == stAccepted {
			zs := inst.zs[p.zone]
			zs.acc.add(p.pidx, p.phase)
			cum = int64(zs.acc.n)
		}
		switch {
		case p.rec >= 0:
			r.log[p.rec].status, r.log[p.rec].cum = status, cum
		case status == stShed:
			r.satShed++
		case status != stAccepted:
			r.satErrors++
		}
	}
	return nil
}

// paced runs the open-loop phase: batch k is due at start + k/rate and
// is sent at once when the generator is late, so a stall delays every
// batch behind it and the delay is counted from the due time.
func (r *runner) paced(n int, traceSlice int64) (start, end int64) {
	r.phase.Store(uint32(phPaced))
	interval := 1e9 / pacedRate
	start = r.now() + int64(time.Millisecond)
	for k := 0; k < n; k++ {
		due := start + int64(float64(k)*interval)
		if d := due - r.now(); d > 0 {
			sleepFor(time.Duration(d))
		}
		traced := traceSlice > 0 && ((due-start)/traceSlice)%2 == 1
		r.send(int32(k%len(r.inst.zs)), phPaced, due, traced)
	}
	return start, r.now()
}

// saturate runs the closed-loop phase: one generator sends as fast as
// the service takes batches and backs off whenever a zone's queue is
// full.
func (r *runner) saturate(d time.Duration, traced bool) {
	inst := r.inst
	r.phase.Store(uint32(phSat))
	deadline := r.now() + int64(d)
	for k := 0; ; k++ {
		now := r.now()
		if now >= deadline {
			break
		}
		status := r.send(int32(k%len(inst.zs)), phSat, now, traced && k%satTraceEvery == 0)
		r.satAttempts++
		switch {
		case status == stShed: // in process; stream acks are counted by settle
			r.satShed++
			time.Sleep(backoff)
		case inst.stream != nil && k%streamWindow == streamWindow-1:
			// The stream pipelines; the client waits for its acks after
			// every streamWindow lines, so at most that many are in flight.
			ctx, cancel := context.WithTimeout(inst.ctx, 10*time.Second)
			err := inst.stream.Sync(ctx)
			cancel()
			if err != nil {
				r.satErrors++
				return
			}
		}
	}
}

// waitCovered waits until every zone's watcher has received an estimate
// covering all its accepted batches, or until the deadline.
func (r *runner) waitCovered(deadline time.Time) bool {
	for {
		done := true
		for z, zs := range r.inst.zs {
			if zs.maxReports.Load() < uint64(zs.acc.n*r.links[z]) {
				done = false
				break
			}
		}
		if done {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// waitConserved waits until every zone's latest published estimate has
// folded every accepted report, or until the deadline.
func (r *runner) waitConserved(deadline time.Time) error {
	for {
		var bad *zoneState
		var want uint64
		for z, zs := range r.inst.zs {
			want = uint64(zs.acc.n * r.links[z])
			if e, ok := r.inst.svc.Position(zs.id); !ok || e.Reports != want {
				bad = zs
				break
			}
		}
		if bad == nil {
			return nil
		}
		if time.Now().After(deadline) {
			e, _ := r.inst.svc.Position(bad.id)
			return fmt.Errorf("report conservation: zone %s published an estimate of %d reports, %d accepted",
				bad.id, e.Reports, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// totals sums the service's zone counters.
type totals struct {
	received, estimates uint64
}

func (r *runner) totals() totals {
	var t totals
	for _, s := range r.inst.svc.Stats() {
		t.received += s.Received
		t.estimates += s.Estimates
	}
	return t
}

// heapSample is the Go heap in use by objects, live or not yet swept,
// in bytes, read at t ns since epoch.
type heapSample struct {
	t, bytes int64
}

// sampler polls the Go heap in use every 10ms until stop is closed.
func (r *runner) sampler(stop <-chan struct{}, done chan<- []heapSample) {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	var out []heapSample
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		metrics.Read(s)
		out = append(out, heapSample{t: r.now(), bytes: int64(s[0].Value.Uint64())})
		select {
		case <-stop:
			done <- out
			return
		case <-tick.C:
		}
	}
}

// runtimeCounters are the Go runtime's cumulative GC and CPU figures.
type runtimeCounters struct {
	gcCycles   uint64
	pauseNs    uint64
	allocBytes uint64
	gcCPU      float64
}

func readRuntime() runtimeCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	return runtimeCounters{
		gcCycles: uint64(ms.NumGC), pauseNs: ms.PauseTotalNs,
		allocBytes: ms.TotalAlloc, gcCPU: s[0].Value.Float64(),
	}
}

// update is one System.Update applied to a serving zone.
type update struct {
	zone       int
	start, end int64
}

// updater applies System.Update to one zone at a time, round robin, on
// a fixed schedule until stop is closed.
func (r *runner) updater(stop <-chan struct{}, t *tracer) ([]update, error) {
	var out []update
	next := time.Now().Add(r.w.refreshAfter)
	for i := 0; ; i++ {
		select {
		case <-stop:
			return out, nil
		case <-time.After(time.Until(next)):
		}
		next = next.Add(r.w.refreshEvery)
		z := i % len(r.inst.zs)
		zs := r.inst.zs[z]
		sys, ok := r.inst.svc.System(zs.id)
		if !ok {
			return out, fmt.Errorf("refresh: zone %s has no System", zs.id)
		}
		start := r.now()
		if _, err := sys.UpdateContext(r.inst.ctx, zs.dep.refCols, zs.dep.vacant45); err != nil {
			return out, fmt.Errorf("refresh: update zone %s: %w", zs.id, err)
		}
		end := r.now()
		zs.epochs[len(zs.epochs)-1].to = end
		zs.epochs = append(zs.epochs, modelEpoch{m: sys.Model(), from: start, to: 1 << 62})
		out = append(out, update{zone: z, start: start, end: end})
		t.add(spUpdate, -1, int32(z), int64(i+1), start, end)
	}
}
