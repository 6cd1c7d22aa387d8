package xrootd

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"lobster/internal/retry"
	"lobster/internal/telemetry"
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
	if r.Lookups() != 2 {
		t.Errorf("lookups=%d", r.Lookups())
	}
}

func TestOpenReadStream(t *testing.T) {
	srv := newServer(t, "T3_US_NotreDame")
	red := NewRedirector()
	content := bytes.Repeat([]byte("event-data;"), 5000)
	red.Register("/store/data.root", mustStore(srv, "/store/data.root", content))

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
	red.Register("/f", mustStore(srv, "/f", content))
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
	red.Register("/big", mustStore(srv, "/big", content))
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
	red.Register("/f", mustStore(bad, "/f", content))
	red.Register("/f", mustStore(good, "/f", content))
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

// writerFunc adapts a function to io.Writer.
type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestFetchToFailoverStampsSiteBytes: a fetch whose replica goes away
// mid-file resumes on the next one, and each site's lobster_bytes_total
// series holds exactly the bytes that site served.
func TestFetchToFailoverStampsSiteBytes(t *testing.T) {
	first, second := newServer(t, "T2_US_Site0"), newServer(t, "T2_US_Site1")
	red := NewRedirector()
	content := bytes.Repeat([]byte("0123456789abcdef"), 4<<20/16)
	red.Register("/big", mustStore(first, "/big", content))
	red.Register("/big", mustStore(second, "/big", content))
	reg := telemetry.NewRegistry()
	c := &Client{Redirector: red, Consumer: "c", Telemetry: reg,
		Retry: retry.Policy{MaxAttempts: 3, Sleep: func(time.Duration) {}}}
	defer c.Close()
	var out bytes.Buffer
	n, err := c.FetchTo("/big", writerFunc(func(p []byte) (int, error) {
		if out.Len() == 0 {
			first.Close() // the serving replica dies after its first chunk
		}
		return out.Write(p)
	}))
	if err != nil || n != int64(len(content)) || !bytes.Equal(out.Bytes(), content) {
		t.Fatalf("FetchTo = %d, %v; identical %v", n, err, bytes.Equal(out.Bytes(), content))
	}
	a := reg.SiteBytes("xrootd_client", telemetry.DirIn, "T2_US_Site0").Value()
	b := reg.SiteBytes("xrootd_client", telemetry.DirIn, "T2_US_Site1").Value()
	if a == 0 || b == 0 || a+b != int64(len(content)) {
		t.Fatalf("site bytes %d + %d; want both sites counted, %d in all", a, b, len(content))
	}
}

// TestReadAtStampsSiteBytes: the workflow reads through Open and ReadAt,
// never FetchTo, and those reads count for the serving site too.
func TestReadAtStampsSiteBytes(t *testing.T) {
	srv := newServer(t, "T3_US_NotreDame")
	red := NewRedirector()
	content := bytes.Repeat([]byte("event;"), 1000)
	red.Register("/f", mustStore(srv, "/f", content))
	reg := telemetry.NewRegistry()
	c := &Client{Redirector: red, Consumer: "c", Telemetry: reg}
	defer c.Close()
	f, err := c.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 100)
	var read int64
	for _, off := range []int64{0, 1000, int64(len(content)) - 40} {
		n, err := f.ReadAt(buf, off)
		if err != nil {
			t.Fatal(err)
		}
		read += int64(n)
	}
	if got := reg.SiteBytes("xrootd_client", telemetry.DirIn, "T3_US_NotreDame").Value(); got != read || read != 240 {
		t.Fatalf("site bytes = %d after ReadAt delivered %d, want 240", got, read)
	}
}

func TestAllReplicasDown(t *testing.T) {
	srv := newServer(t, "T2_ONLY")
	red := NewRedirector()
	red.Register("/f", mustStore(srv, "/f", []byte("x")))
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
		red.Register(fmt.Sprintf("/f%d", i), mustStore(srv, fmt.Sprintf("/f%d", i), contents[i]))
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
	if srv.bytesOut.Value() != total {
		t.Errorf("server bytes out = %d, want %d", srv.bytesOut.Value(), total)
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

// mustStore stores content under lfn on s and returns the replica to
// register, panicking if the spool cannot be written: a fixture cannot
// go on without its data.
func mustStore(s *DataServer, lfn string, content []byte) Replica {
	rep, err := s.StoreFrom(lfn, func(w io.Writer) error {
		_, err := w.Write(content)
		return err
	})
	if err != nil {
		panic(err)
	}
	return rep
}
