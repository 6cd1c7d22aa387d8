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
}

// NewResource returns a resource with the given capacity (>= 1).
func NewResource(s *Sim, capacity int) *Resource {
	if capacity < 1 {
		panic(fmt.Sprintf("simevent: resource capacity %d", capacity))
	}
	return &Resource{sim: s, capacity: capacity}
}

// Acquire blocks p until a unit is available. Units are granted in FIFO
// order. It returns false if the wait was interrupted, in which case no unit
// is held.
func (r *Resource) Acquire(p *Proc) bool {
	if r.inUse < r.capacity && len(r.queue) == 0 {
		r.inUse++
		return true
	}
	r.queue = append(r.queue, p)
	if !p.parkInterruptible() {
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
