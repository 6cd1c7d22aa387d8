// Package simevent is a deterministic discrete-event simulation kernel.
//
// It provides an event queue with a simulated clock, a goroutine-based
// process abstraction (each simulated entity — worker, proxy, server — runs
// as an ordinary Go function that suspends on simulated time), counted
// resources with FIFO queueing, and a processor-sharing bandwidth link used
// to model shared network capacity.
//
// The kernel maintains a strict single-runner invariant: at any instant
// either the scheduler or exactly one process goroutine is executing, so
// simulations are deterministic given a seed even though they are written in
// direct style with thousands of concurrent processes.
//
// # Performance model
//
// The hot path is allocation-free and cancellation is O(1):
//
//   - Event nodes live on a per-Sim free list; steady-state Schedule and
//     Cancel perform zero heap allocations.
//   - The queue is an implicit 4-ary heap: one third the depth of a binary
//     heap, with each node's children on a single cache line.
//   - Cancel marks the node dead and leaves it in the queue; Step discards
//     dead nodes when they surface. A live-event counter keeps Pending()
//     exact. This replaces the old eager heap.Remove (O(log n) per
//     cancelled timer — one per interrupted wait, i.e. per eviction, the
//     paper's central phenomenon).
//   - Proc wakeups, starts, and interrupts are typed event kinds dispatched
//     directly from the node, not via per-call closures.
//   - A proc that sleeps while its own wakeup is the next live event
//     advances the clock itself instead of round-tripping through the
//     scheduler's four channel handoffs (see Proc.Wait).
//
// Sims are single-threaded internally but independent Sims may run
// concurrently; the proc-goroutine pool shared between them is the only
// cross-Sim state and is synchronised.
package simevent

import (
	"fmt"
	"math"
)

// Event kinds. evFn runs a user callback; the proc kinds dispatch without a
// closure so the proc hot path allocates nothing per operation.
const (
	evFn        = iota
	evStart     // launch the proc on a pooled runner goroutine
	evWake      // resume a parked proc
	evInterrupt // resume a parked proc if its interrupt is still pending
)

// eventNode is a queued event. Nodes are pooled per Sim; gen distinguishes
// the current occupancy from stale handles to earlier uses of the node.
type eventNode struct {
	time      float64
	seq       int64
	fn        func()
	proc      *Proc
	gen       uint32
	kind      uint8
	cancelled bool
}

// Event is a cancellable handle to a scheduled callback. The zero Event is
// inert: cancelling it is a no-op. Handles stay valid after the event fires
// or is cancelled (they become no-ops), even though the underlying node is
// recycled.
type Event struct {
	n   *eventNode
	gen uint32
}

// live reports whether the handle refers to a queued, uncancelled event.
func (e Event) live() bool {
	return e.n != nil && e.n.gen == e.gen && !e.n.cancelled
}

// Sim is a discrete-event simulation. The zero value is ready to use.
type Sim struct {
	now    float64
	events []*eventNode // implicit 4-ary min-heap on (time, seq)
	free   []*eventNode // recycled nodes
	seq    int64
	live   int // queued, uncancelled events
	procs  int // live processes (for diagnostics)
}

// New returns a fresh simulation with the clock at zero.
func New() *Sim { return &Sim{} }

// Now returns the current simulated time.
func (s *Sim) Now() float64 { return s.now }

// newNode takes a node from the free list (or allocates one) and enqueues it
// at absolute time t with the next sequence number.
func (s *Sim) newNode(t float64) *eventNode {
	var n *eventNode
	if k := len(s.free) - 1; k >= 0 {
		n = s.free[k]
		s.free = s.free[:k]
	} else {
		n = &eventNode{}
	}
	n.time = t
	n.seq = s.seq
	s.seq++
	n.cancelled = false
	s.live++
	s.push(n)
	return n
}

// recycle returns a popped node to the free list, invalidating outstanding
// handles via the generation counter and releasing the callback.
func (s *Sim) recycle(n *eventNode) {
	n.fn = nil
	n.proc = nil
	n.gen++
	s.free = append(s.free, n)
}

// 4-ary implicit heap ordered by (time, seq); seq breaks ties FIFO among
// simultaneous events.

func eventLess(a, b *eventNode) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

func (s *Sim) push(n *eventNode) {
	h := append(s.events, n)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !eventLess(n, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = n
	s.events = h
}

func (s *Sim) pop() *eventNode {
	h := s.events
	top := h[0]
	last := len(h) - 1
	n := h[last]
	h[last] = nil
	h = h[:last]
	s.events = h
	if last == 0 {
		return top
	}
	// Sift the former tail down from the root.
	i := 0
	for {
		first := 4*i + 1
		if first >= last {
			break
		}
		min := first
		end := first + 4
		if end > last {
			end = last
		}
		for c := first + 1; c < end; c++ {
			if eventLess(h[c], h[min]) {
				min = c
			}
		}
		if !eventLess(h[min], n) {
			break
		}
		h[i] = h[min]
		i = min
	}
	h[i] = n
	return top
}

// Schedule arranges for fn to run after delay units of simulated time.
// A negative delay is an error expressed as a panic: it would mean time
// travel, which is always a bug in the caller.
func (s *Sim) Schedule(delay float64, fn func()) Event {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("simevent: schedule with invalid delay %g at t=%g", delay, s.now))
	}
	return s.At(s.now+delay, fn)
}

// At arranges for fn to run at absolute simulated time t (>= Now).
func (s *Sim) At(t float64, fn func()) Event {
	if t < s.now {
		panic(fmt.Sprintf("simevent: schedule at %g before now %g", t, s.now))
	}
	n := s.newNode(t)
	n.kind = evFn
	n.fn = fn
	return Event{n: n, gen: n.gen}
}

// schedule enqueues a proc-kind event after delay (no closure, no allocation
// in steady state).
func (s *Sim) schedule(delay float64, kind uint8, p *Proc) Event {
	n := s.newNode(s.now + delay)
	n.kind = kind
	n.proc = p
	return Event{n: n, gen: n.gen}
}

// Cancel prevents e from firing. Cancelling an already-fired or
// already-cancelled event (or the zero Event) is a no-op. Cancellation is
// O(1): the node is marked dead and discarded when it reaches the front of
// the queue.
func (s *Sim) Cancel(e Event) {
	if !e.live() {
		return
	}
	e.n.cancelled = true
	e.n.fn = nil
	e.n.proc = nil
	s.live--
}

// Step fires the next pending event, advancing the clock. It reports whether
// an event was processed.
func (s *Sim) Step() bool {
	for len(s.events) > 0 {
		n := s.pop()
		if n.cancelled {
			s.recycle(n)
			continue
		}
		s.now = n.time
		s.live--
		kind, fn, p := n.kind, n.fn, n.proc
		s.recycle(n)
		switch kind {
		case evFn:
			fn()
		case evStart:
			p.start()
		case evWake:
			p.wakeup()
		case evInterrupt:
			if !p.dead && p.interrupted {
				p.activate()
			}
		}
		return true
	}
	return false
}

// Run processes events until the queue drains.
func (s *Sim) Run() {
	for s.Step() {
	}
}

// Pending returns the number of queued live events; cancelled events still
// awaiting discard are not counted.
func (s *Sim) Pending() int { return s.live }

// Procs returns the number of live processes, for leak diagnostics in tests.
func (s *Sim) Procs() int { return s.procs }
