package serve

// The locate executor: a small shared pool of workers that runs every
// zone's fold and localization rounds. Zones are pure state machines —
// an idle zone costs a map entry and a queue, not a goroutine — so the
// goroutine count is Config.LocateWorkers regardless of whether the
// service holds ten zones or ten thousand. Scheduling guarantees at
// most one fold task and one locate task in flight per zone (see the
// zone state machine in serve.go), so the fold state needs no locking
// and per-zone estimate order is preserved, while a hot zone's next
// fold can overlap its previous locate on another worker.

import (
	"sync"

	"tafloc/internal/core"
)

// taskKind selects what a queued task does.
type taskKind uint8

const (
	// foldTask drains a zone's report queue into its live windows and
	// prepares the next estimate.
	foldTask taskKind = iota
	// locateTask runs the match query for a prepared estimate and
	// publishes it.
	locateTask
)

// task is one unit of executor work. Locate tasks carry the prepared
// live vector and the partially-filled estimate by value, so queueing a
// task allocates nothing beyond its queue slot. They also carry the
// *core.Model the fold round detected against: the zone's residency
// slot may be evicted to nil and its System may publish a new Model at
// any moment, but a Model already in flight is immutable, so the
// round's presence verdict and position come from one calibration.
type task struct {
	z    *zone
	kind taskKind
	m    *core.Model
	y    []float64
	e    Estimate
}

// executor is a FIFO run queue drained by a fixed set of workers. The
// queue is a mutex-guarded growable ring: at most one fold and one
// locate entry can exist per zone, so its length is bounded by twice
// the zone count.
type executor struct {
	//tafloc:lock-order 50 executor queue lock; nests inside the zone locks
	mu     sync.Mutex
	cond   sync.Cond
	queue  []task
	head   int
	closed bool
}

func newExecutor() *executor {
	e := &executor{}
	e.cond.L = &e.mu
	return e
}

// submit appends a task for the workers and reports whether it was
// accepted. After close it returns false without queueing or running
// anything: the workers may already have exited, and running the task
// inline would deadlock — every call site holds the zone's schedMu,
// which the task body re-locks. A rejected caller must unwind its own
// scheduling state (busy flag, task count, pooled buffers) under the
// lock it already holds; the dropped work matches the shutdown
// contract, which discards reports still queued when the service
// stops.
func (e *executor) submit(t task) bool {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return false
	}
	e.queue = append(e.queue, t)
	e.cond.Signal()
	e.mu.Unlock()
	return true
}

// next blocks for the next task. ok is false when the executor is
// closed and the queue fully drained — the worker should exit.
func (e *executor) next() (task, bool) {
	e.mu.Lock()
	for e.head == len(e.queue) && !e.closed {
		e.cond.Wait()
	}
	if e.head == len(e.queue) {
		e.mu.Unlock()
		return task{}, false
	}
	t := e.queue[e.head]
	e.queue[e.head] = task{}
	e.head++
	switch {
	case e.head == len(e.queue):
		e.queue = e.queue[:0]
		e.head = 0
	case e.head > len(e.queue)/2 && e.head >= 64:
		// Compact the drained prefix so a queue under continuous load
		// does not grow without bound.
		n := copy(e.queue, e.queue[e.head:])
		for i := n; i < len(e.queue); i++ {
			e.queue[i] = task{}
		}
		e.queue = e.queue[:n]
		e.head = 0
	}
	e.mu.Unlock()
	return t, true
}

// close wakes every worker; they drain the remaining queue and exit.
func (e *executor) close() {
	e.mu.Lock()
	e.closed = true
	e.cond.Broadcast()
	e.mu.Unlock()
}
