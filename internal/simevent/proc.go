package simevent

import (
	"fmt"
	"sync"
)

// Proc is a simulated process: a goroutine that advances only in simulated
// time. Procs are created with Sim.Go and may only call their methods from
// within their own goroutine.
//
// The kernel guarantees that exactly one goroutine (the scheduler or one
// proc) runs at a time, so proc code needs no locking against other procs.
type Proc struct {
	sim    *Sim
	fn     func(p *Proc)
	resume chan struct{}
	yield  chan struct{}
	// Interrupted is set when the proc was woken by Interrupt rather than by
	// the condition it was waiting for. Cleared on the next suspension.
	interrupted bool
	interruptOK bool // proc is in an interruptible wait
	dead        bool
	sigSlot     int // index into the Signal waiter list, -1 when not waiting
}

// procRunner is a pooled goroutine that executes proc bodies. Runners are
// reused across procs and across Sims, so steady-state Sim.Go spawns no
// goroutine and allocates no channels; only the small Proc struct is fresh.
// The pool is global and synchronised — it is the only cross-Sim state, and
// runner identity is invisible to simulation code, so determinism within
// each Sim is unaffected.
type procRunner struct {
	resume chan struct{}
	yield  chan struct{}
	job    chan *Proc
}

var runnerPool struct {
	sync.Mutex
	free []*procRunner
}

// maxIdleRunners bounds the parked goroutines kept for reuse; beyond this,
// finished runners exit instead.
const maxIdleRunners = 4096

func getRunner() *procRunner {
	runnerPool.Lock()
	if k := len(runnerPool.free) - 1; k >= 0 {
		r := runnerPool.free[k]
		runnerPool.free = runnerPool.free[:k]
		runnerPool.Unlock()
		return r
	}
	runnerPool.Unlock()
	r := &procRunner{
		resume: make(chan struct{}),
		yield:  make(chan struct{}),
		job:    make(chan *Proc, 1),
	}
	go r.loop()
	return r
}

func putRunner(r *procRunner) {
	runnerPool.Lock()
	if len(runnerPool.free) < maxIdleRunners {
		runnerPool.free = append(runnerPool.free, r)
		runnerPool.Unlock()
		return
	}
	runnerPool.Unlock()
	close(r.job)
}

func (r *procRunner) loop() {
	for p := range r.job {
		<-r.resume
		p.fn(p)
		p.fn = nil
		p.dead = true
		p.sim.procs--
		r.yield <- struct{}{}
		// The scheduler has resumed; this runner is idle again.
		putRunner(r)
	}
}

// Go starts fn as a new simulated process at the current simulated time.
func (s *Sim) Go(fn func(p *Proc)) *Proc {
	p := &Proc{sim: s, fn: fn, sigSlot: -1}
	s.procs++
	s.schedule(0, evStart, p)
	return p
}

// start binds the proc to a pooled runner goroutine and hands it control.
// Runs in scheduler context when the proc's start event fires.
func (p *Proc) start() {
	r := getRunner()
	p.resume, p.yield = r.resume, r.yield
	r.job <- p
	p.activate()
}

// activate hands control to the proc and blocks the caller (scheduler side)
// until the proc suspends or finishes. Must be called from scheduler context
// (inside an event callback).
func (p *Proc) activate() {
	p.resume <- struct{}{}
	<-p.yield
}

// suspend hands control back to the scheduler and blocks until resumed.
// Must be called from the proc's own goroutine.
func (p *Proc) suspend() {
	p.yield <- struct{}{}
	<-p.resume
}

// Now returns the current simulated time.
func (p *Proc) Now() float64 { return p.sim.now }

// Wait suspends the proc for d units of simulated time. It returns false if
// the wait was cut short by Interrupt.
//
// Fast path: when the proc's own wakeup would be the very next live event,
// nothing else can run — and therefore nothing can interrupt — before it
// fires, so the proc advances the clock itself and skips the four channel
// handoffs of a scheduler round-trip.
func (p *Proc) Wait(d float64) bool {
	if d < 0 {
		panic(fmt.Sprintf("simevent: Wait(%g)", d))
	}
	s := p.sim
	if !p.interrupted {
		t := s.now + d
		for {
			if len(s.events) == 0 || t < s.events[0].time {
				s.now = t
				return true
			}
			if s.events[0].cancelled {
				s.recycle(s.pop())
				continue
			}
			break
		}
	}
	ev := s.schedule(d, evWake, p)
	ok := p.parkInterruptible()
	if !ok {
		s.Cancel(ev)
	}
	return ok
}

// WaitUntil suspends until absolute simulated time t (no-op if t <= now).
// It returns false if interrupted early.
func (p *Proc) WaitUntil(t float64) bool {
	if t <= p.sim.now {
		return true
	}
	return p.Wait(t - p.sim.now)
}

// wakeup resumes the proc from scheduler context.
func (p *Proc) wakeup() {
	if p.dead {
		return
	}
	p.activate()
}

// parkInterruptible suspends until wakeup or Interrupt; reports true for a
// normal wakeup, false for an interrupt.
func (p *Proc) parkInterruptible() bool {
	p.interruptOK = true
	p.suspend()
	p.interruptOK = false
	if p.interrupted {
		p.interrupted = false
		return false
	}
	return true
}

// Interrupt wakes the proc if it is blocked in an interruptible wait
// (Wait/WaitUntil/AwaitSignal). The victim's wait method returns false.
// Must be called from scheduler context or another proc — never from the
// victim itself. If the proc is not currently interruptible the call is a
// no-op.
func (p *Proc) Interrupt() {
	if p.dead || !p.interruptOK {
		return
	}
	p.interrupted = true
	p.sim.schedule(0, evInterrupt, p)
}

// Signal is a broadcast condition variable for procs. The zero value is
// ready to use after binding to a Sim via NewSignal.
type Signal struct {
	sim     *Sim
	waiters []*Proc // interrupted waiters leave nil holes until Broadcast
}

// NewSignal returns a signal bound to s.
func NewSignal(s *Sim) *Signal { return &Signal{sim: s} }

// Await suspends p until the next Broadcast. It returns false if interrupted.
// An interrupted waiter deregisters in O(1) via its recorded slot, leaving a
// hole that Broadcast skips; wake order remains arrival order.
func (sg *Signal) Await(p *Proc) bool {
	p.sigSlot = len(sg.waiters)
	sg.waiters = append(sg.waiters, p)
	ok := p.parkInterruptible()
	if !ok && p.sigSlot >= 0 {
		// Still registered (Broadcast would have cleared the slot): punch
		// out our hole without disturbing the FIFO order of the rest.
		sg.waiters[p.sigSlot] = nil
	}
	p.sigSlot = -1
	return ok
}

// Broadcast wakes all current waiters (in FIFO order, each via its own
// zero-delay event).
func (sg *Signal) Broadcast() {
	ws := sg.waiters
	sg.waiters = nil
	for _, w := range ws {
		if w == nil {
			continue
		}
		w.sigSlot = -1
		sg.sim.schedule(0, evWake, w)
	}
}
