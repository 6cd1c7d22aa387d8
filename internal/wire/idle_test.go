package wire_test

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"lobster/internal/chirp"
	"lobster/internal/telemetry"
	"lobster/internal/wire"
	"lobster/internal/xrootd"
)

// peer is one protocol's real server and a request it answers with a
// single status line.
type peer struct {
	name  string
	hello string
	// serve starts a server on addr ("127.0.0.1:0" for any port) and
	// returns its address and its Close.
	serve func(t *testing.T, addr string) (string, func() error)
}

var peers = []peer{
	{name: "chirp", hello: "stat /\n", serve: func(t *testing.T, addr string) (string, func() error) {
		fs, err := chirp.NewLocalFS(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		srv, err := chirp.NewServer(fs, addr, 16, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		return srv.Addr(), srv.Close
	}},
	{name: "xrootd", hello: "open /f\n", serve: func(t *testing.T, addr string) (string, func() error) {
		srv, err := xrootd.NewDataServer("T3_WIRE", addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		if _, err := srv.StoreFrom("/f", func(w io.Writer) error {
			_, err := w.Write([]byte("hello"))
			return err
		}); err != nil {
			t.Fatal(err)
		}
		return srv.Addr(), srv.Close
	}},
}

// exchange is the first exchange of an operation on c: the hello request.
func (p peer) exchange(c *wire.Conn) error {
	if err := c.Send([]byte(p.hello)); err != nil {
		return err
	}
	_, err := c.ReadStatus()
	return err
}

func (p peer) pool(reg *telemetry.Registry) *wire.Pool[*wire.Conn] {
	return wire.NewPool(reg, "lobster_test_conns_total", func(addr string) (*wire.Conn, error) {
		nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			return nil, err
		}
		return wire.NewConn(p.name, nc, 64<<10, 8<<10), nil
	}, func(c *wire.Conn) *wire.Conn { return c })
}

func (p peer) take(t *testing.T, pool *wire.Pool[*wire.Conn], addr string) *wire.Conn {
	t.Helper()
	c, err := pool.Take(addr, p.exchange)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func wantConns(t *testing.T, reg *telemetry.Registry, reused, dialed, stale int64) {
	t.Helper()
	vec := reg.CounterVec("lobster_test_conns_total", "", "outcome")
	if r, d, s := vec.With("reused").Value(), vec.With("dialed").Value(), vec.With("stale").Value(); r != reused || d != dialed || s != stale {
		t.Errorf("reused/dialed/stale = %d/%d/%d, want %d/%d/%d", r, d, s, reused, dialed, stale)
	}
}

// TestIdlePolicy runs the one parked-connection policy against both
// protocols' real servers: what is parked, for how long, how many, and
// what a parked connection the peer hung up on costs.
func TestIdlePolicy(t *testing.T) {
	for _, p := range peers {
		t.Run(p.name, func(t *testing.T) {
			t.Run("reuse", func(t *testing.T) {
				addr, _ := p.serve(t, "127.0.0.1:0")
				reg := telemetry.NewRegistry()
				pool := p.pool(reg)
				defer pool.Close()
				for i := 0; i < 3; i++ {
					pool.Put(addr, p.take(t, pool, addr))
				}
				wantConns(t, reg, 2, 1, 0)
				if n := pool.Parked(); n != 1 {
					t.Errorf("%d parked, want 1", n)
				}
			})

			t.Run("at most 8 per address", func(t *testing.T) {
				addr, _ := p.serve(t, "127.0.0.1:0")
				pool := p.pool(nil)
				defer pool.Close()
				held := make([]*wire.Conn, 11)
				for i := range held {
					held[i] = p.take(t, pool, addr)
				}
				for _, c := range held {
					pool.Put(addr, c)
				}
				if n := pool.Parked(); n != 8 {
					t.Errorf("%d parked, want 8", n)
				}
				for _, c := range held[8:] {
					if !c.Broken() {
						t.Error("a connection past the bound was not hung up")
					}
				}
			})

			t.Run("stale costs one free dial", func(t *testing.T) {
				addr, stop := p.serve(t, "127.0.0.1:0")
				reg := telemetry.NewRegistry()
				pool := p.pool(reg)
				defer pool.Close()
				pool.Put(addr, p.take(t, pool, addr))
				stop() // the peer restarts, hanging up on what it had
				p.serve(t, addr)
				firsts := 0
				c, err := pool.Take(addr, func(c *wire.Conn) error { firsts++; return p.exchange(c) })
				if err != nil || firsts != 2 {
					t.Fatalf("take after the peer hung up: %v after %d exchanges; want success on the second", err, firsts)
				}
				pool.Put(addr, c)
				wantConns(t, reg, 0, 2, 1)
			})

			t.Run("a broken connection is never parked", func(t *testing.T) {
				addr, _ := p.serve(t, "127.0.0.1:0")
				pool := p.pool(nil)
				defer pool.Close()
				c := p.take(t, pool, addr)
				c.Fail(errors.New("transport failure"))
				pool.Put(addr, c)
				if n := pool.Parked(); n != 0 {
					t.Errorf("%d parked after a broken connection came back", n)
				}
			})

			t.Run("nor one with unread bytes", func(t *testing.T) {
				addr, _ := p.serve(t, "127.0.0.1:0")
				pool := p.pool(nil)
				defer pool.Close()
				c := p.take(t, pool, addr)
				if err := c.Send([]byte(p.hello + p.hello)); err != nil {
					t.Fatal(err)
				}
				if _, err := c.ReadStatus(); err != nil {
					t.Fatal(err)
				}
				if _, err := c.R.Peek(1); err != nil { // the second reply is in the buffer
					t.Fatal(err)
				}
				pool.Put(addr, c)
				if n := pool.Parked(); n != 0 || !c.Broken() {
					t.Errorf("parked %d, hung up %v; want a connection with unread bytes hung up", n, c.Broken())
				}
			})

			t.Run("a closed pool hangs up", func(t *testing.T) {
				addr, _ := p.serve(t, "127.0.0.1:0")
				pool := p.pool(nil)
				a, b := p.take(t, pool, addr), p.take(t, pool, addr)
				pool.Put(addr, a)
				pool.Put(addr, b)
				pool.Close()
				if !a.Broken() || !b.Broken() || pool.Parked() != 0 {
					t.Errorf("after Close: parked %d, hung up %v %v", pool.Parked(), a.Broken(), b.Broken())
				}
				c := p.take(t, pool, addr) // a closed pool still dials
				pool.Put(addr, c)
				if pool.Parked() != 0 || !c.Broken() {
					t.Error("a closed pool parked a connection")
				}
			})

			t.Run("idle at most 60 s", func(t *testing.T) {
				addr, _ := p.serve(t, "127.0.0.1:0")
				reg := telemetry.NewRegistry()
				pool := p.pool(reg)
				defer pool.Close()
				now := time.Unix(1e9, 0)
				wire.SetClock(pool, func() time.Time { return now })
				first := p.take(t, pool, addr)
				pool.Put(addr, first)
				now = now.Add(60 * time.Second)
				c := p.take(t, pool, addr)
				if c != first {
					t.Fatal("a connection parked 60 s was not reused")
				}
				pool.Put(addr, c)
				now = now.Add(60*time.Second + 1)
				if c = p.take(t, pool, addr); c == first || !first.Broken() {
					t.Fatal("a connection parked past 60 s was reused, or not hung up")
				}
				pool.Put(addr, c)
				wantConns(t, reg, 1, 2, 0)
			})
		})
	}
}
