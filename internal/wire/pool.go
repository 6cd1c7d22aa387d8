package wire

import (
	"sync"
	"time"

	"lobster/internal/retry"
	"lobster/internal/telemetry"
)

const (
	// maxIdle bounds the connections parked per address: the most service
	// slots one worker process drives against one server at once (the
	// stage-out pool's eight). A burst past it hangs up the surplus
	// instead of holding a storage element's slots for nothing.
	maxIdle = 8
	// idleTimeout drops a connection parked longer than this on its way
	// out: the peer may have reaped it, and a minute is longer than any gap
	// between the tasks of a busy worker.
	idleTimeout = 60 * time.Second
)

// Pool parks idle connections by address between the operations of a
// client — both protocols are stateless per command, so a connection that
// served one request serves the next as it is. C is the protocol's
// connection type; conn reaches the Conn inside it. Safe for concurrent
// use.
//
// Health is checked on use, not by probing: Take hands out the most
// recently parked connection (LIFO), and one that breaks on its first
// exchange — the peer hung up while it sat idle, which says nothing about
// the peer now — is replaced by exactly one dial, charged to nobody's
// retry budget. Put parks only a connection that is healthy and has
// nothing buffered.
type Pool[C any] struct {
	dial func(addr string) (C, error)
	conn func(C) *Conn
	now  func() time.Time // the idle limit's clock

	mu     sync.Mutex
	byAddr map[string][]parked[C]
	closed bool

	// reused, dialed, stale count what each Take used; nil (no registry)
	// is free.
	reused, dialed, stale *telemetry.Counter
}

type parked[C any] struct {
	c     C
	since time.Time
}

// NewPool returns a pool that dials with dial and counts its outcomes
// under series{outcome} on reg (nil: uncounted).
func NewPool[C any](reg *telemetry.Registry, series string, dial func(addr string) (C, error), conn func(C) *Conn) *Pool[C] {
	vec := reg.CounterVec(series,
		"Connections a client used: a parked one (reused), a fresh dial (dialed), or a parked one found dead and replaced by a dial (stale).",
		"outcome")
	return &Pool[C]{dial: dial, conn: conn, now: time.Now,
		reused: vec.With("reused"), dialed: vec.With("dialed"), stale: vec.With("stale")}
}

// Take runs first, the first exchange of an operation, on a connection to
// addr — a parked one if any is fresh, else a new dial — and returns the
// connection for the rest of it. If first fails, the connection goes back
// (Put) and the error is returned instead. A parked connection that first
// breaks with a transport failure is stale: first runs once more on a
// dial, and only that outcome is the caller's.
func (p *Pool[C]) Take(addr string, first func(C) error) (C, error) {
	if c, ok := p.idle(addr); ok {
		err := first(c)
		if !p.conn(c).Broken() || retry.IsPermanent(err) {
			p.reused.Inc()
			return p.settle(addr, c, err)
		}
		p.stale.Inc()
	}
	c, err := p.dial(addr)
	if err != nil {
		return c, err
	}
	p.dialed.Inc()
	return p.settle(addr, c, first(c))
}

func (p *Pool[C]) settle(addr string, c C, err error) (C, error) {
	if err != nil {
		p.Put(addr, c)
		var none C
		return none, err
	}
	return c, nil
}

// idle pops addr's most recently parked connection, hanging up any that
// sat past the idle limit on the way.
func (p *Pool[C]) idle(addr string) (C, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	l := p.byAddr[addr]
	for len(l) > 0 {
		pc := l[len(l)-1]
		l = l[:len(l)-1]
		p.byAddr[addr] = l
		if p.now().Sub(pc.since) <= idleTimeout {
			return pc.c, true
		}
		p.conn(pc.c).Close()
	}
	var none C
	return none, false
}

// Put parks c for the next Take on addr, or hangs it up when it is broken,
// holds unread bytes, or would overfill addr's list, or the pool is closed.
func (p *Pool[C]) Put(addr string, c C) {
	w := p.conn(c)
	if w.Broken() {
		return // Fail already closed it
	}
	if w.R.Buffered() == 0 {
		p.mu.Lock()
		if !p.closed && len(p.byAddr[addr]) < maxIdle {
			if p.byAddr == nil {
				p.byAddr = make(map[string][]parked[C])
			}
			p.byAddr[addr] = append(p.byAddr[addr], parked[C]{c, p.now()})
			p.mu.Unlock()
			return
		}
		p.mu.Unlock()
	}
	w.Close()
}

// Parked counts the connections the pool holds.
func (p *Pool[C]) Parked() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, l := range p.byAddr {
		n += len(l)
	}
	return n
}

// Close hangs up the parked connections. Take still dials, but from here
// on every Put hangs up.
func (p *Pool[C]) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	for _, l := range p.byAddr {
		for _, pc := range l {
			p.conn(pc.c).Close()
		}
	}
	p.byAddr = nil
	return nil
}
