package chirp

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"lobster/internal/faultinject"
	"lobster/internal/retry"
	"lobster/internal/telemetry"
	"lobster/internal/trace"
)

// poolGet reads the file at path through p.Do, retries included.
func poolGet(p *Pool, path string) ([]byte, error) {
	var data []byte
	err := p.Do(func(c *Client) error {
		var err error
		data, err = c.GetFile(path)
		return err
	})
	return data, err
}

// putFrom puts the local file src at path through p.Do, reopening it on
// each retry: a file source streamed by PutFileFrom, as the merge
// executor's stage-out is.
func putFrom(p *Pool, path, src string) error {
	return p.Do(func(c *Client) error {
		f, err := os.Open(src)
		if err != nil {
			return retry.Permanent(err)
		}
		defer f.Close()
		st, err := f.Stat()
		if err != nil {
			return retry.Permanent(err)
		}
		return c.PutFileFrom(path, f, st.Size())
	})
}

// conns reads the pool's lobster_chirp_client_conns_total{outcome}.
func conns(reg *telemetry.Registry, outcome string) int64 {
	return reg.CounterVec("lobster_chirp_client_conns_total", "", "outcome").With(outcome).Value()
}

func TestPoolReusesConnections(t *testing.T) {
	_, addr := startTestServer(t)
	reg := telemetry.NewRegistry()
	p := NewPool(PoolOptions{Addr: addr, Size: 2, Telemetry: reg})
	defer p.Close()

	payload := []byte("pooled payload")
	for i := 0; i < 10; i++ {
		if err := p.PutFile("/p.dat", payload); err != nil {
			t.Fatal(err)
		}
		got, err := poolGet(p, "/p.dat")
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("GetFile = %q, %v", got, err)
		}
	}
	if d := conns(reg, "dialed"); d > 2 {
		t.Errorf("pool dialed %d times for sequential ops, want <= 2", d)
	}
	if r := conns(reg, "reused"); r < 15 {
		t.Errorf("pool reused only %d times over 20 ops", r)
	}
}

func TestPoolClosedRejectsWork(t *testing.T) {
	_, addr := startTestServer(t)
	p := NewPool(PoolOptions{Addr: addr})
	if err := p.PutFile("/c.dat", []byte("x")); err != nil {
		t.Fatal(err)
	}
	p.Close()
	if _, err := poolGet(p, "/c.dat"); err == nil {
		t.Fatal("Do on a closed pool succeeded")
	}
}

// TestPoolSurvivesFaultStorm hammers one server from 16 goroutines
// through a shared pool while the fault plane randomly drops client
// connections mid-transfer. Every operation must still complete (the
// pool discards broken connections and redials under the retry policy),
// and every payload must round-trip intact. Run under -race this is
// also the pool's concurrency test.
func TestPoolSurvivesFaultStorm(t *testing.T) {
	fs, err := NewLocalFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(fs, "127.0.0.1:0", 16)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	inj := faultinject.New(&faultinject.Plan{
		Seed: 42,
		Rules: []faultinject.Rule{{
			Component: "chirp_client",
			Action:    faultinject.ActDrop, Prob: 0.02,
		}},
	})
	reg := telemetry.NewRegistry()
	p := NewPool(PoolOptions{
		Addr: srv.Addr(),
		Size: 8,
		Retry: retry.Policy{
			MaxAttempts: 10,
			Sleep:       func(time.Duration) {},
		},
		Fault:     inj,
		Telemetry: reg,
	})
	defer p.Close()

	const goroutines = 16
	const opsEach = 15
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte('a' + g)}, 64<<10)
			for i := 0; i < opsEach; i++ {
				path := fmt.Sprintf("/storm/g%d/f%d.dat", g, i)
				if err := p.Do(func(c *Client) error {
					return c.PutFileFrom(path, bytes.NewReader(payload), int64(len(payload)))
				}); err != nil {
					errs <- fmt.Errorf("put %s: %w", path, err)
					return
				}
				got, err := poolGet(p, path)
				if err != nil {
					errs <- fmt.Errorf("get %s: %w", path, err)
					return
				}
				if !bytes.Equal(got, payload) {
					errs <- fmt.Errorf("payload corrupted on %s", path)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if inj.TotalFired() == 0 {
		t.Fatal("injector never fired — the storm exercised nothing")
	}
	// Eight slots need eight connections; every dial past them replaced
	// one the storm broke.
	if d := conns(reg, "dialed"); d <= 8 {
		t.Errorf("%d dials: no broken connection was ever replaced", d)
	}
}

// TestPoolFetchToAndStoreFrom: a local file stored through the pool and
// fetched back into another lands byte for byte, and a fetch of a file
// that is gone fails.
func TestPoolFetchToAndStoreFrom(t *testing.T) {
	_, addr := startTestServer(t)
	p := NewPool(PoolOptions{Addr: addr})
	defer p.Close()

	dir := t.TempDir()
	src := filepath.Join(dir, "src.dat")
	payload := bytes.Repeat([]byte("stage"), 1<<18) // 1.25 MiB, spans chunks
	if err := os.WriteFile(src, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := putFrom(p, "/staged.dat", src); err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(dir, "dst.dat")
	if n, err := p.FetchToTraced(nil, trace.Context{}, "/staged.dat", dst); err != nil || n != int64(len(payload)) {
		t.Fatalf("FetchTo = %d, %v", n, err)
	}
	got, err := os.ReadFile(dst)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("round trip corrupted the payload (%d bytes, %v)", len(got), err)
	}
	if err := p.Do(func(c *Client) error { return c.Unlink("/staged.dat") }); err != nil {
		t.Fatal(err)
	}
	if _, err := p.FetchToTraced(nil, trace.Context{}, "/staged.dat", dst); err == nil {
		t.Fatal("fetch of unlinked file succeeded")
	}
}

// TestConnCountersCostNothingWithoutRegistry: with no registry, taking a
// parked connection and parking it again — counted as reused — allocates
// nothing.
func TestConnCountersCostNothingWithoutRegistry(t *testing.T) {
	_, addr := startTestServer(t)
	p := NewPool(PoolOptions{Addr: addr})
	defer p.Close()
	if err := p.PutFile("/c.dat", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		c, err := p.conns.Take(addr, func(*Client) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		p.conns.Put(addr, c)
	}); n != 0 {
		t.Errorf("take and park without a registry: %v allocs/op, want 0", n)
	}
}
