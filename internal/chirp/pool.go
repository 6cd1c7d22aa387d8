package chirp

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"lobster/internal/faultinject"
	"lobster/internal/retry"
	"lobster/internal/telemetry"
	"lobster/internal/trace"
)

// PoolOptions configures NewPool.
type PoolOptions struct {
	// Addr is the chirp server address.
	Addr string
	// Size bounds connections in use at once (default 4). Callers past
	// the bound block in Do until a connection frees up, so a worker
	// staging dozens of files concurrently cannot stampede the server's
	// slot cap on its own.
	Size int
	// IdleTTL discards pooled connections that sat unused this long
	// (default 60s): the server end may have timed out or restarted.
	IdleTTL time.Duration
	// DialTimeout bounds each TCP connect (default 30s).
	DialTimeout time.Duration
	// OpTimeout bounds each protocol operation (0 = unbounded).
	OpTimeout time.Duration
	// Retry bounds the redial-and-retry loop of each Do call. The zero
	// Policy performs a single attempt.
	Retry retry.Policy
	// Fault, when non-nil, wires every pooled connection into the fault
	// plane under component "chirp_client".
	Fault *faultinject.Injector
	// Telemetry, when non-nil, instruments the pool (dial/reuse
	// counters) and the payload byte counters of every connection.
	Telemetry *telemetry.Registry
	// Site, when set, stamps the remote storage site on every
	// connection's byte series — one pool per storage element is the
	// natural shape, so the pool is where the site is known.
	Site string
}

// PoolStats is a snapshot of pool counters.
type PoolStats struct {
	Dials    int64 // fresh connections established
	Reuses   int64 // operations served on a pooled connection
	Discards int64 // connections dropped (broken, expired, or pool full)
}

// Pool is a bounded pool of chirp connections, safe for concurrent use.
// It is the hardened entry point for chirp operations: Do retries
// transport faults (a dropped connection, a timeout, an injected fault)
// with bounded exponential backoff, while server-reported and protocol
// errors are permanent and surface on the first strike (see errors.go).
// Connections are kept because on the data plane's hot paths — parallel
// stage-in/out and merge reads — a connection per operation spends more
// time in TCP handshakes than in payload bytes.
//
// Health is checked on reuse, not by background probing: a connection
// that breaks mid-operation is discarded (the Client poisons itself),
// and an operation that fails its first attempt on a *reused* connection
// is replayed once on a freshly dialed one without consuming the retry
// budget — a stale pooled connection is an artifact of pooling, not a
// fault the caller's policy should pay for.
type Pool struct {
	opts PoolOptions
	sem  chan struct{}

	mu     sync.Mutex
	idle   []pooledConn // LIFO: most recently used first
	closed bool

	dials    atomic.Int64
	reuses   atomic.Int64
	discards atomic.Int64
}

type pooledConn struct {
	c     *Client
	since time.Time
}

// NewPool creates a pool for the server at opts.Addr. No connection is
// dialed until the first Do call needs one.
func NewPool(opts PoolOptions) *Pool {
	if opts.Size <= 0 {
		opts.Size = 4
	}
	if opts.IdleTTL <= 0 {
		opts.IdleTTL = 60 * time.Second
	}
	p := &Pool{opts: opts, sem: make(chan struct{}, opts.Size)}
	if reg := opts.Telemetry; reg != nil {
		reg.GaugeFunc("lobster_chirp_pool_idle_connections",
			"Healthy chirp connections parked in the pool.",
			func() float64 { p.mu.Lock(); defer p.mu.Unlock(); return float64(len(p.idle)) })
	}
	return p
}

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Dials:    p.dials.Load(),
		Reuses:   p.reuses.Load(),
		Discards: p.discards.Load(),
	}
}

// Close discards the idle connections and marks the pool closed; later
// Do calls fail. Connections currently lent to Do calls are closed as
// they come back.
func (p *Pool) Close() error {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.closed = true
	p.mu.Unlock()
	for _, pc := range idle {
		pc.c.Close()
	}
	return nil
}

var errPoolClosed = errors.New("chirp: pool is closed")

// Do runs fn against a pooled connection, holding one of the pool's
// slots for the whole call (retries included). fn must be idempotent
// under re-execution: each retry re-runs it from the top, possibly on a
// fresh connection, so fn must recreate any readers it consumes.
func (p *Pool) Do(fn func(*Client) error) error {
	return p.DoTraced(nil, trace.Context{}, fn)
}

// DoTraced is Do with an explicit tracer and parent for this call:
// shared long-lived pools serve many tasks, each with its own span, so
// the connection is re-tagged before fn runs (reused connections would
// otherwise chain spans under whichever task dialed them).
func (p *Pool) DoTraced(tr *trace.Tracer, parent trace.Context, fn func(*Client) error) error {
	p.sem <- struct{}{}
	defer func() { <-p.sem }()
	return p.opts.Retry.Do(func() error {
		c, reused, err := p.conn(true)
		if err != nil {
			return err
		}
		err = p.runOne(c, tr, parent, fn)
		if err != nil && reused && !retry.IsPermanent(err) {
			// Free redial: the pooled connection was stale.
			c, _, derr := p.conn(false)
			if derr != nil {
				return derr
			}
			err = p.runOne(c, tr, parent, fn)
		}
		return err
	})
}

// runOne runs fn on c and returns c to the pool (or discards it if the
// operation broke it).
func (p *Pool) runOne(c *Client, tr *trace.Tracer, parent trace.Context, fn func(*Client) error) error {
	if tr != nil {
		c.Trace(tr, parent)
	}
	err := fn(c)
	p.put(c)
	return err
}

// conn returns a healthy connection: a pooled one when allowReuse and
// one is fresh enough, otherwise a new dial. The reused result reports
// which.
func (p *Pool) conn(allowReuse bool) (c *Client, reused bool, err error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, false, errPoolClosed
	}
	var stale []pooledConn
	for allowReuse && len(p.idle) > 0 && c == nil {
		pc := p.idle[len(p.idle)-1]
		p.idle = p.idle[:len(p.idle)-1]
		if time.Since(pc.since) > p.opts.IdleTTL {
			stale = append(stale, pc)
			continue
		}
		c = pc.c
	}
	p.mu.Unlock()
	for _, pc := range stale {
		p.discards.Add(1)
		pc.c.Close()
	}
	if c != nil {
		p.reuses.Add(1)
		return c, true, nil
	}
	c, err = DialOpts(p.opts.Addr, ClientOptions{
		DialTimeout: p.opts.DialTimeout,
		OpTimeout:   p.opts.OpTimeout,
		Fault:       p.opts.Fault,
		Telemetry:   p.opts.Telemetry,
		Site:        p.opts.Site,
	})
	if err != nil {
		return nil, false, err
	}
	p.dials.Add(1)
	return c, false, nil
}

// put returns c to the idle list, discarding it if it broke, the pool
// closed, or the idle list is full.
func (p *Pool) put(c *Client) {
	if c.Broken() {
		p.discards.Add(1)
		return // Client.fail already closed the socket
	}
	p.mu.Lock()
	if !p.closed && len(p.idle) < cap(p.sem) {
		p.idle = append(p.idle, pooledConn{c: c, since: time.Now()})
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	p.discards.Add(1)
	c.Close()
}

// GetFile fetches path with retries.
func (p *Pool) GetFile(path string) ([]byte, error) {
	var data []byte
	err := p.Do(func(c *Client) error {
		var err error
		data, err = c.GetFile(path)
		return err
	})
	return data, err
}

// PutFile writes path with retries (idempotent: replays rewrite the
// same bytes).
func (p *Pool) PutFile(path string, data []byte) error {
	return p.Do(func(c *Client) error { return c.PutFile(path, data) })
}

// FetchTo streams the remote file at path into the local file at dst,
// creating or truncating it. Each retry restarts from an empty file, so
// a half-written download is never left behind as a complete-looking
// one. Returns the byte count.
func (p *Pool) FetchTo(path, dst string) (int64, error) {
	return p.FetchToTraced(nil, trace.Context{}, path, dst)
}

// FetchToTraced is FetchTo under an explicit tracer and parent, as
// DoTraced is to Do.
func (p *Pool) FetchToTraced(tr *trace.Tracer, parent trace.Context, path, dst string) (int64, error) {
	var n int64
	err := p.DoTraced(tr, parent, func(c *Client) error {
		f, err := os.Create(dst)
		if err != nil {
			return retry.Permanent(fmt.Errorf("chirp: creating %s: %w", dst, err))
		}
		n, err = c.GetFileTo(path, f)
		if cerr := f.Close(); err == nil && cerr != nil {
			err = retry.Permanent(fmt.Errorf("chirp: closing %s: %w", dst, cerr))
		}
		return err
	})
	return n, err
}

// StoreFrom streams the local file at src to the remote path, reopening
// the source on each retry. Returns the byte count.
func (p *Pool) StoreFrom(path, src string) (int64, error) {
	var n int64
	err := p.Do(func(c *Client) error {
		f, err := os.Open(src)
		if err != nil {
			return retry.Permanent(fmt.Errorf("chirp: opening %s: %w", src, err))
		}
		defer f.Close()
		st, err := f.Stat()
		if err != nil {
			return retry.Permanent(fmt.Errorf("chirp: stat %s: %w", src, err))
		}
		n = st.Size()
		// No LimitReader here: PutFileFrom caps at n itself, and keeping
		// f bare lets the TCP stack's sendfile unwrapping see the *os.File.
		return c.PutFileFrom(path, f, n)
	})
	return n, err
}

// Unlink removes path with retries, treating ErrNotExist on a retry as
// success (the previous attempt may have removed the file before its
// response was lost).
func (p *Pool) Unlink(path string) error {
	attempt := 0
	return p.Do(func(c *Client) error {
		attempt++
		err := c.Unlink(path)
		if err != nil && attempt > 1 && errors.Is(err, ErrNotExist) {
			return nil
		}
		return err
	})
}
