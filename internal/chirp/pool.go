package chirp

import (
	"errors"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"lobster/internal/faultinject"
	"lobster/internal/retry"
	"lobster/internal/telemetry"
	"lobster/internal/trace"
	"lobster/internal/wire"
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
	// Retry bounds the redial-and-retry loop of each Do call. The zero
	// Policy performs a single attempt.
	Retry retry.Policy
	// Fault, when non-nil, wires every pooled connection into the fault
	// plane under component "chirp_client".
	Fault *faultinject.Injector
	// Telemetry, when non-nil, counts the pool's connections
	// (lobster_chirp_client_conns_total{outcome}, the idle gauge) and the
	// payload bytes of every connection.
	Telemetry *telemetry.Registry
}

// Pool is a bounded pool of chirp connections, safe for concurrent use.
// It is the hardened entry point for chirp operations: Do retries
// transport faults (a dropped connection, a timeout, an injected fault)
// with bounded exponential backoff, while server-reported and protocol
// errors are permanent and surface on the first strike. Connections are
// kept because on the data plane's hot paths — parallel stage-in/out and
// merge reads — a connection per operation spends more time in TCP
// handshakes than in payload bytes.
//
// The idle list is a wire.Pool: health is checked on reuse, and an
// operation that breaks a parked connection is replayed once on a fresh
// dial without consuming the retry budget — a stale pooled connection is
// an artifact of pooling, not a fault the caller's policy should pay for.
type Pool struct {
	opts   PoolOptions
	sem    chan struct{}
	conns  *wire.Pool[*Client]
	closed atomic.Bool
}

// NewPool creates a pool for the server at opts.Addr. No connection is
// dialed until the first Do call needs one.
func NewPool(opts PoolOptions) *Pool {
	if opts.Size <= 0 {
		opts.Size = 4
	}
	p := &Pool{opts: opts, sem: make(chan struct{}, opts.Size)}
	in := opts.Telemetry.Bytes("chirp_client", telemetry.DirIn)
	out := opts.Telemetry.Bytes("chirp_client", telemetry.DirOut)
	p.conns = wire.NewPool(opts.Telemetry, "lobster_chirp_client_conns_total",
		func(addr string) (*Client, error) { return connect(addr, 30*time.Second, opts.Fault, in, out) },
		func(c *Client) *wire.Conn { return c.conn })
	opts.Telemetry.GaugeFunc("lobster_chirp_pool_idle_connections",
		"Healthy chirp connections parked in the pool.",
		func() float64 { return float64(p.conns.Parked()) })
	return p
}

// Close discards the idle connections and marks the pool closed; later
// Do calls fail. Connections currently lent to Do calls are closed as
// they come back.
func (p *Pool) Close() error {
	p.closed.Store(true)
	return p.conns.Close()
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
// otherwise chain spans under whichever task used them last).
func (p *Pool) DoTraced(tr *trace.Tracer, parent trace.Context, fn func(*Client) error) error {
	if p.closed.Load() {
		return errPoolClosed
	}
	p.sem <- struct{}{}
	defer func() { <-p.sem }()
	return p.opts.Retry.Do(func() error {
		c, err := p.conns.Take(p.opts.Addr, func(c *Client) error {
			c.tracer, c.parent = tr, parent
			return fn(c)
		})
		if err == nil {
			p.conns.Put(p.opts.Addr, c)
		}
		return err
	})
}

// PutFile writes path with retries (idempotent: replays rewrite the
// same bytes).
func (p *Pool) PutFile(path string, data []byte) error {
	return p.Do(func(c *Client) error { return c.PutFile(path, data) })
}

// FetchToTraced streams the remote file at path into the local file at
// dst, creating or truncating it, under an explicit tracer and parent as
// DoTraced is to Do. Each retry restarts from an empty file, so a
// half-written download is never left behind as a complete-looking one.
// Returns the byte count.
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
