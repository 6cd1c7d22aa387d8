package xrootd

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"
)

func newServer(t *testing.T, site string) *DataServer {
	t.Helper()
	s, err := NewDataServer(site, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestRedirectorRegisterLocate(t *testing.T) {
	r := NewRedirector()
	rep := Replica{Site: "T3_US_NotreDame", Addr: "1.2.3.4:1094"}
	r.Register("/store/a.root", rep)
	r.Register("/store/a.root", rep) // duplicate: ignored
	r.Register("/store/a.root", Replica{Site: "T2_US_Nebraska", Addr: "5.6.7.8:1094"})
	reps, err := r.Locate("/store/a.root")
	if err != nil || len(reps) != 2 {
		t.Fatalf("locate: %v, %v", reps, err)
	}
	if _, err := r.Locate("/store/missing.root"); err == nil {
		t.Error("missing LFN located")
	}
	if r.Files() != 1 || r.Lookups() != 2 {
		t.Errorf("files=%d lookups=%d", r.Files(), r.Lookups())
	}
}

func TestRedirectorDeregister(t *testing.T) {
	r := NewRedirector()
	r.Register("/f", Replica{Site: "A", Addr: "a:1"})
	r.Register("/f", Replica{Site: "B", Addr: "b:1"})
	r.Deregister("/f", "a:1")
	reps, err := r.Locate("/f")
	if err != nil || len(reps) != 1 || reps[0].Site != "B" {
		t.Fatalf("after deregister: %v, %v", reps, err)
	}
	r.Deregister("/f", "b:1")
	if _, err := r.Locate("/f"); err == nil {
		t.Error("fully deregistered LFN located")
	}
}

func TestOpenReadStream(t *testing.T) {
	srv := newServer(t, "T3_US_NotreDame")
	red := NewRedirector()
	content := bytes.Repeat([]byte("event-data;"), 5000)
	red.Register("/store/data.root", srv.Store("/store/data.root", content))

	c := &Client{Redirector: red, Dashboard: NewDashboard(), Consumer: "lobster-nd"}
	f, err := c.Open("/store/data.root")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Size() != int64(len(content)) {
		t.Fatalf("size = %d", f.Size())
	}
	got, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("streamed content mismatch")
	}
	if c.Dashboard.Volume("lobster-nd") != int64(len(content)) {
		t.Errorf("dashboard volume = %d", c.Dashboard.Volume("lobster-nd"))
	}
}

func TestReadAtRandomAccess(t *testing.T) {
	srv := newServer(t, "T1_US_FNAL")
	red := NewRedirector()
	content := []byte("0123456789abcdef")
	red.Register("/f", srv.Store("/f", content))
	c := &Client{Redirector: red, Consumer: "t"}
	f, err := c.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 4)
	n, err := f.ReadAt(buf, 10)
	if err != nil || n != 4 || string(buf) != "abcd" {
		t.Fatalf("ReadAt(10) = %q, %d, %v", buf, n, err)
	}
	// Read past EOF returns short.
	n, err = f.ReadAt(buf, 14)
	if err != nil || n != 2 || string(buf[:n]) != "ef" {
		t.Fatalf("ReadAt(14) = %q, %d, %v", buf[:n], n, err)
	}
	// Offset beyond EOF reads zero bytes.
	n, err = f.ReadAt(buf, 100)
	if err != nil || n != 0 {
		t.Fatalf("ReadAt(100) = %d, %v", n, err)
	}
}

func TestFetchWholeFile(t *testing.T) {
	srv := newServer(t, "T2_US_Wisconsin")
	red := NewRedirector()
	content := bytes.Repeat([]byte{7}, 1<<20)
	red.Register("/big", srv.Store("/big", content))
	c := &Client{Redirector: red, Dashboard: NewDashboard(), Consumer: "c"}
	got, err := c.Fetch("/big")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("fetched content mismatch")
	}
}

func TestFailoverToSecondReplica(t *testing.T) {
	bad := newServer(t, "T2_DOWN")
	good := newServer(t, "T2_UP")
	red := NewRedirector()
	content := []byte("survives failover")
	red.Register("/f", bad.Store("/f", content))
	red.Register("/f", good.Store("/f", content))
	bad.SetDown(true)

	c := &Client{Redirector: red, Consumer: "c"}
	got, err := c.Fetch("/f")
	if err != nil {
		t.Fatalf("failover failed: %v", err)
	}
	if string(got) != string(content) {
		t.Fatal("content mismatch after failover")
	}
}

func TestAllReplicasDown(t *testing.T) {
	srv := newServer(t, "T2_ONLY")
	red := NewRedirector()
	red.Register("/f", srv.Store("/f", []byte("x")))
	srv.SetDown(true)
	c := &Client{Redirector: red, Consumer: "c"}
	if _, err := c.Open("/f"); err == nil {
		t.Fatal("open succeeded with all replicas down")
	}
	// Recovery: server comes back.
	srv.SetDown(false)
	if _, err := c.Fetch("/f"); err != nil {
		t.Fatalf("fetch after recovery: %v", err)
	}
}

func TestConcurrentStreams(t *testing.T) {
	srv := newServer(t, "T3")
	red := NewRedirector()
	const nFiles = 8
	contents := make([][]byte, nFiles)
	for i := range contents {
		contents[i] = bytes.Repeat([]byte{byte(i + 1)}, 100000+i)
		red.Register(fmt.Sprintf("/f%d", i), srv.Store(fmt.Sprintf("/f%d", i), contents[i]))
	}
	dash := NewDashboard()
	var wg sync.WaitGroup
	errs := make([]error, nFiles)
	for i := 0; i < nFiles; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := &Client{Redirector: red, Dashboard: dash, Consumer: fmt.Sprintf("user%d", i)}
			got, err := c.Fetch(fmt.Sprintf("/f%d", i))
			if err != nil {
				errs[i] = err
				return
			}
			if !bytes.Equal(got, contents[i]) {
				errs[i] = fmt.Errorf("file %d mismatch", i)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	var total int64
	for _, c := range contents {
		total += int64(len(c))
	}
	if srv.bytesOut.Load() != total {
		t.Errorf("server bytes out = %d, want %d", srv.bytesOut.Load(), total)
	}
}

func TestDashboardTop(t *testing.T) {
	d := NewDashboard()
	d.Record("lobster", 500)
	d.Record("t2-a", 300)
	d.Record("t2-b", 300)
	d.Record("t2-c", 100)
	d.Record("lobster", 500)
	top := d.Top(3)
	if len(top) != 3 {
		t.Fatalf("top = %v", top)
	}
	if top[0].Consumer != "lobster" || top[0].Bytes != 1000 {
		t.Errorf("top[0] = %+v", top[0])
	}
	// Tie broken by name for determinism.
	if top[1].Consumer != "t2-a" || top[2].Consumer != "t2-b" {
		t.Errorf("tie order: %+v", top[1:])
	}
	if all := d.Top(100); len(all) != 4 {
		t.Errorf("Top(100) = %d rows", len(all))
	}
	var nilDash *Dashboard
	nilDash.Record("x", 1) // must not panic
}
