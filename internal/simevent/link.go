package simevent

import (
	"container/heap"
	"fmt"
	"math"
)

// Link models a shared network link with processor-sharing semantics: all
// active transfers split the capacity equally, and completion times are
// recomputed whenever a transfer starts or finishes. This is the standard
// fluid-flow model for a saturated uplink and is what reproduces the paper's
// observation that the 10 Gbit/s campus link, fully consumed by ~9000
// streaming tasks, stretches task I/O time.
//
// The implementation uses virtual service time: every active stream receives
// service at the same instantaneous rate, so each transfer completes when
// the cumulative per-stream service S(t) reaches its admission value plus
// its size. Transfers sit in a heap keyed by that target, making every
// operation O(log n) even with tens of thousands of concurrent streams.
type Link struct {
	sim      *Sim
	capacity float64 // bytes per simulated second

	served     float64 // cumulative per-stream service since link creation
	h          transferHeap
	last       float64 // time of last progress update
	next       Event   // next completion event; zero handle when none
	completeFn func()  // bound l.complete, allocated once
	bytesMoved float64
}

type transfer struct {
	target float64 // served value at which this transfer completes
	proc   *Proc
	index  int // heap index; -1 once removed
}

type transferHeap []*transfer

func (h transferHeap) Len() int           { return len(h) }
func (h transferHeap) Less(i, j int) bool { return h[i].target < h[j].target }
func (h transferHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *transferHeap) Push(x any) {
	tr := x.(*transfer)
	tr.index = len(*h)
	*h = append(*h, tr)
}
func (h *transferHeap) Pop() any {
	old := *h
	n := len(old)
	tr := old[n-1]
	old[n-1] = nil
	tr.index = -1
	*h = old[:n-1]
	return tr
}

// NewLink returns a link with the given capacity in bytes/second.
func NewLink(s *Sim, bytesPerSec float64) *Link {
	if bytesPerSec <= 0 {
		panic(fmt.Sprintf("simevent: link capacity %g", bytesPerSec))
	}
	l := &Link{sim: s, capacity: bytesPerSec, last: s.Now()}
	l.completeFn = l.complete
	return l
}

// BytesMoved returns the total payload moved through the link so far.
func (l *Link) BytesMoved() float64 {
	l.progress()
	return l.bytesMoved
}

// rate returns the current per-transfer service rate.
func (l *Link) rate() float64 {
	n := l.h.Len()
	if n == 0 {
		return 0
	}
	return l.capacity / float64(n)
}

// progress advances the virtual service clock to the current time.
func (l *Link) progress() {
	now := l.sim.Now()
	dt := now - l.last
	l.last = now
	n := l.h.Len()
	if dt <= 0 || n == 0 {
		return
	}
	l.served += l.capacity / float64(n) * dt
	l.bytesMoved += l.capacity * dt
}

// reschedule cancels any pending completion event and schedules the next.
func (l *Link) reschedule() {
	l.sim.Cancel(l.next)
	l.next = Event{}
	if l.h.Len() == 0 {
		return
	}
	delay := (l.h[0].target - l.served) / l.rate()
	if delay < 0 {
		delay = 0
	}
	l.next = l.sim.Schedule(delay, l.completeFn)
}

// complete finishes every transfer whose service target has been reached.
// The minimum-target transfer is done by construction when this event fires;
// floating-point residue must not keep it alive.
func (l *Link) complete() {
	l.next = Event{}
	l.progress()
	eps := math.Max(1e-6, math.Abs(l.served)*1e-12)
	first := true
	for l.h.Len() > 0 && (l.h[0].target <= l.served+eps || first) {
		tr := heap.Pop(&l.h).(*transfer)
		l.sim.schedule(0, evWake, tr.proc)
		first = false
	}
	l.reschedule()
}

// Transfer moves the given number of bytes through the link, suspending p
// until the transfer completes under processor sharing. Zero-byte transfers
// return true immediately. It returns false if the proc was interrupted
// (e.g. worker eviction mid-transfer), in which case the transfer is
// abandoned and its remaining bytes never move.
func (l *Link) Transfer(p *Proc, bytes float64) bool {
	if bytes < 0 || math.IsNaN(bytes) {
		panic(fmt.Sprintf("simevent: transfer of %g bytes", bytes))
	}
	if bytes == 0 {
		return true
	}
	l.progress()
	tr := &transfer{target: l.served + bytes, proc: p}
	heap.Push(&l.h, tr)
	l.reschedule()
	if !p.parkInterruptible() {
		l.progress()
		if tr.index >= 0 {
			heap.Remove(&l.h, tr.index)
			// The abandoned bytes were counted as moved while active; the
			// approximation is acceptable for BytesMoved.
			l.reschedule()
		}
		return false
	}
	return true
}
