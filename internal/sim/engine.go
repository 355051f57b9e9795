// Package sim provides the discrete-event simulation substrate used by
// every timed component in the sNPU reproduction (the cycle accounting
// beneath every §VI figure): a cycle clock, an
// event heap, serialized resources with FIFO contention, and named
// statistics counters.
//
// The engine is deterministic: events scheduled for the same cycle fire
// in the order they were scheduled, so repeated runs of the same
// configuration produce identical cycle counts.
package sim

import (
	"fmt"
)

// Cycle is a point on (or a span of) the simulated clock. The SoC in
// the paper runs at 1 GHz, so one Cycle is one nanosecond of simulated
// time under the default configuration.
type Cycle int64

// event is a scheduled callback. seq breaks ties so that same-cycle
// events fire in scheduling order.
type event struct {
	at  Cycle
	seq uint64
	fn  func()
}

// eventHeap is a binary min-heap ordered by (at, seq), stored by value.
// It is hand-rolled rather than container/heap so Push/Pop move values
// in the backing slice instead of boxing a pointer per event through
// an interface — the event queue is the simulator's hottest allocation
// site.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

// push appends e and sifts it up.
func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

// pop removes and returns the minimum event.
func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{} // release the callback for GC
	q = q[:n]
	*h = q
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		child := left
		if right := left + 1; right < n && q.less(right, left) {
			child = right
		}
		if !q.less(child, i) {
			break
		}
		q[i], q[child] = q[child], q[i]
		i = child
	}
	return top
}

// Engine is a single-threaded discrete-event simulator.
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	now    Cycle
	seq    uint64
	events eventHeap
	// sameCycle coalesces heap traffic: events scheduled for exactly
	// the current cycle (the common cascade pattern — an event firing
	// schedules follow-on work "now") go into this FIFO instead of
	// paying a heap push + sift and a pop + sift each. Entries are
	// appended with at == now and now never decreases, so the slice is
	// ordered by (at, seq) and its head is always its minimum; the run
	// loop merges it with the heap by the same (at, seq) rule, so
	// firing order is bit-identical to the heap-only engine.
	sameCycle []event
	sameHead  int
	stats     *Stats
	stopped   bool
}

// NewEngine returns an engine at cycle 0 with an empty event queue.
func NewEngine() *Engine {
	return &Engine{stats: NewStats()}
}

// Now reports the current simulated cycle.
func (e *Engine) Now() Cycle { return e.now }

// Stats returns the engine-wide statistics sink.
func (e *Engine) Stats() *Stats { return e.stats }

// Schedule runs fn at the given absolute cycle. Scheduling in the past
// panics: it indicates a component bug, not a recoverable condition.
func (e *Engine) Schedule(at Cycle, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at cycle %d before now %d", at, e.now))
	}
	e.seq++
	if at == e.now {
		e.sameCycle = append(e.sameCycle, event{at: at, seq: e.seq, fn: fn})
		return
	}
	e.events.push(event{at: at, seq: e.seq, fn: fn})
}

// next pops the globally minimum pending event, merging the heap with
// the same-cycle FIFO. Callers must ensure Pending() > 0.
func (e *Engine) next() event {
	if e.sameHead < len(e.sameCycle) {
		f := e.sameCycle[e.sameHead]
		heapFirst := len(e.events) > 0 &&
			(e.events[0].at < f.at || (e.events[0].at == f.at && e.events[0].seq < f.seq))
		if !heapFirst {
			e.sameCycle[e.sameHead] = event{} // release the callback for GC
			e.sameHead++
			if e.sameHead == len(e.sameCycle) {
				e.sameCycle = e.sameCycle[:0]
				e.sameHead = 0
			}
			return f
		}
	}
	return e.events.pop()
}

// peekAt reports the timestamp of the minimum pending event; callers
// must ensure Pending() > 0.
func (e *Engine) peekAt() Cycle {
	if e.sameHead < len(e.sameCycle) {
		// FIFO entries were scheduled at what was then "now", so the
		// head is never later than anything in the heap's future — but
		// compare anyway to keep the invariant local.
		f := e.sameCycle[e.sameHead]
		if len(e.events) == 0 || e.events[0].at >= f.at {
			return f.at
		}
	}
	return e.events[0].at
}

// After runs fn delay cycles from now.
func (e *Engine) After(delay Cycle, fn func()) {
	e.Schedule(e.now+delay, fn)
}

// Run drains the event queue, advancing the clock, until no events
// remain or Stop is called. It returns the final cycle.
func (e *Engine) Run() Cycle {
	e.stopped = false
	for e.Pending() > 0 && !e.stopped {
		ev := e.next()
		e.now = ev.at
		ev.fn()
	}
	return e.now
}

// RunUntil drains events with timestamps <= limit. Events beyond the
// limit stay queued. It returns the final cycle (<= limit).
func (e *Engine) RunUntil(limit Cycle) Cycle {
	for e.Pending() > 0 && e.peekAt() <= limit && !e.stopped {
		ev := e.next()
		e.now = ev.at
		ev.fn()
	}
	if e.now < limit && !e.stopped {
		e.now = limit
	}
	return e.now
}

// Stop halts Run after the currently firing event returns.
func (e *Engine) Stop() { e.stopped = true }

// Pending reports how many events are queued.
func (e *Engine) Pending() int { return len(e.events) + (len(e.sameCycle) - e.sameHead) }

// Reset returns the engine to cycle 0 with an empty queue and zeroed
// stats, keeping the event heap's and FIFO's backing storage so a
// pooled SoC's next run schedules into warm memory instead of
// regrowing it.
func (e *Engine) Reset() {
	e.now = 0
	e.seq = 0
	e.stopped = false
	for i := range e.events {
		e.events[i] = event{}
	}
	e.events = e.events[:0]
	for i := range e.sameCycle {
		e.sameCycle[i] = event{}
	}
	e.sameCycle = e.sameCycle[:0]
	e.sameHead = 0
	e.stats.Reset()
}

// Advance moves the clock forward without firing events. It is used by
// sequential task executors that compute their own op durations and
// only need the shared clock and resources. Moving backwards panics.
func (e *Engine) Advance(to Cycle) {
	if to < e.now {
		panic(fmt.Sprintf("sim: advancing clock backwards from %d to %d", e.now, to))
	}
	e.now = to
}
