package serve

// The locate executor: a small shared pool of workers that runs every
// zone's fold and localization rounds. Zones are pure state machines —
// an idle zone costs a map entry and its run state, not a goroutine —
// so the goroutine count is GOMAXPROCS, read at Start, regardless of
// whether the service holds ten zones or ten thousand. Scheduling
// guarantees at most one fold task and one locate task in flight per
// zone (see the zone state machine in serve.go), so the fold state
// needs no locking and per-zone estimate order is preserved, while a
// hot zone's next fold can overlap its previous locate on another
// worker. The run queue and each zone's report queue are one fifo type.

import (
	"slices"
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
// *core.System the fold round resolved: the zone's residency slot may
// be evicted to nil at any moment, but a System already in flight is
// immutable and completes its match correctly regardless.
type task struct {
	z    *zone
	kind taskKind
	sys  *core.System
	y    []float64
	e    Estimate
}

// executor is a FIFO run queue drained by a fixed set of workers. At
// most one fold and one locate task can be queued per zone, so its
// length is bounded by twice the zone count.
type executor struct {
	//tafloc:lock-order 50 executor queue lock; nests inside the zone locks
	mu     sync.Mutex
	cond   sync.Cond
	queue  fifo[task]
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
// scheduling state (see submitLocked); the dropped work matches the
// shutdown contract, which discards reports still queued when the
// service stops.
func (e *executor) submit(t task) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return false
	}
	e.queue.push(t)
	e.cond.Signal()
	return true
}

// next blocks for the next task. ok is false when the executor is
// closed and the queue fully drained — the worker should exit.
func (e *executor) next() (task, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for e.queue.len() == 0 && !e.closed {
		e.cond.Wait()
	}
	return e.queue.pop()
}

// close wakes every worker; they drain the remaining queue and exit.
func (e *executor) close() {
	e.mu.Lock()
	e.closed = true
	e.cond.Broadcast()
	e.mu.Unlock()
}

// fifo is a first-in, first-out queue over a growable slice, guarded by
// its owner's lock; the zero value is empty. Its backing array follows
// the backlog: a queue never pushed to holds none, and once the popped
// prefix is more than half the array and at least 64 slots, the
// backlog moves to an array of its own size, so a drained burst leaves
// only a small array behind.
type fifo[T any] struct {
	buf  []T
	head int
}

func (q *fifo[T]) len() int { return len(q.buf) - q.head }

func (q *fifo[T]) push(v T) { q.buf = append(q.buf, v) }

// pop removes and returns the oldest value; ok is false when the queue
// is empty.
func (q *fifo[T]) pop() (v T, ok bool) {
	if q.head == len(q.buf) {
		return v, false
	}
	v = q.buf[q.head]
	var zero T
	q.buf[q.head] = zero // drop the reference the popped slot held
	q.head++
	switch {
	case q.head == len(q.buf):
		q.buf, q.head = q.buf[:0], 0
	case q.head > len(q.buf)/2 && q.head >= 64:
		q.buf, q.head = slices.Clone(q.buf[q.head:]), 0
	}
	return v, true
}
