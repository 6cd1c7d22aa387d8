package simevent

import "fmt"

// Resource is a counted resource (semaphore) with FIFO queueing, used to
// model bounded server capacity such as a Chirp server's concurrent
// connection limit or a squid proxy's worker slots.
type Resource struct {
	sim      *Sim
	capacity int
	inUse    int
	queue    []*Proc
	// Accounting for utilisation analysis.
	totalWait  float64
	acquires   int
	maxQueue   int
	enterTimes map[*Proc]float64
}

// NewResource returns a resource with the given capacity (>= 1).
func NewResource(s *Sim, capacity int) *Resource {
	if capacity < 1 {
		panic(fmt.Sprintf("simevent: resource capacity %d", capacity))
	}
	return &Resource{sim: s, capacity: capacity, enterTimes: make(map[*Proc]float64)}
}

// Acquire blocks p until a unit is available. Units are granted in FIFO
// order. It returns false if the wait was interrupted, in which case no unit
// is held.
func (r *Resource) Acquire(p *Proc) bool {
	r.acquires++
	if r.inUse < r.capacity && len(r.queue) == 0 {
		r.inUse++
		return true
	}
	r.queue = append(r.queue, p)
	if len(r.queue) > r.maxQueue {
		r.maxQueue = len(r.queue)
	}
	r.enterTimes[p] = p.Now()
	ok := p.parkInterruptible()
	r.totalWait += p.Now() - r.enterTimes[p]
	delete(r.enterTimes, p)
	if !ok {
		found := false
		for i, q := range r.queue {
			if q == p {
				r.queue = append(r.queue[:i], r.queue[i+1:]...)
				found = true
				break
			}
		}
		if !found {
			// Release already dequeued us and transferred a unit just as the
			// interrupt landed; give the unit back so it is not leaked.
			r.Release()
		}
		return false
	}
	// A unit was transferred to us by Release before wakeup.
	return true
}

// TryAcquire grabs a unit without waiting; it reports success.
func (r *Resource) TryAcquire() bool {
	if r.inUse < r.capacity && len(r.queue) == 0 {
		r.inUse++
		return true
	}
	return false
}

// Release returns one unit and wakes the head waiter, if any. It panics if
// no units are held: that is always a caller bug.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("simevent: release of idle resource")
	}
	if len(r.queue) > 0 {
		// Hand the unit directly to the head waiter: inUse stays constant.
		head := r.queue[0]
		r.queue = r.queue[1:]
		r.sim.schedule(0, evWake, head)
		return
	}
	r.inUse--
}

// InUse returns the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of procs waiting.
func (r *Resource) QueueLen() int { return len(r.queue) }

// MaxQueue returns the largest queue length observed.
func (r *Resource) MaxQueue() int { return r.maxQueue }

// MeanWait returns the mean queueing delay over all completed acquisitions.
func (r *Resource) MeanWait() float64 {
	if r.acquires == 0 {
		return 0
	}
	return r.totalWait / float64(r.acquires)
}

// SetCapacity adjusts capacity at runtime (e.g. an operator deploying more
// proxies mid-run). Growing wakes as many waiters as new units allow.
func (r *Resource) SetCapacity(capacity int) {
	if capacity < 1 {
		panic(fmt.Sprintf("simevent: resource capacity %d", capacity))
	}
	r.capacity = capacity
	for r.inUse < r.capacity && len(r.queue) > 0 {
		head := r.queue[0]
		r.queue = r.queue[1:]
		r.inUse++
		r.sim.schedule(0, evWake, head)
	}
}
