package xrootd

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"lobster/internal/telemetry"
)

// stripedCluster stores content on n replica servers and returns a
// client wired to them through a fresh redirector.
func stripedCluster(t *testing.T, lfn string, content []byte, n int) (*Client, []*DataServer) {
	t.Helper()
	red := NewRedirector()
	servers := make([]*DataServer, n)
	for i := 0; i < n; i++ {
		srv := newServer(t, fmt.Sprintf("T2_US_Site%d", i))
		red.Register(lfn, srv.Store(lfn, content))
		servers[i] = srv
	}
	c := &Client{Redirector: red, Dashboard: NewDashboard(), Consumer: "striped",
		Selector: NewSelector()}
	return c, servers
}

func TestStatReportsSizeAndCRC(t *testing.T) {
	srv := newServer(t, "T1")
	red := NewRedirector()
	content := []byte("checksum me")
	red.Register("/f", srv.Store("/f", content))
	c := &Client{Redirector: red, Consumer: "c"}
	f, err := c.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	size, crc, ok, err := f.Stat()
	if err != nil || !ok {
		t.Fatalf("Stat = ok=%v err=%v", ok, err)
	}
	if size != int64(len(content)) || crc == 0 {
		t.Fatalf("Stat = size %d crc %08x", size, crc)
	}
	// The connection must remain usable after stat.
	buf := make([]byte, 4)
	if n, err := f.ReadAt(buf, 0); err != nil || n != 4 {
		t.Fatalf("ReadAt after Stat: %d, %v", n, err)
	}
}

func TestFetchToStripedByteIdentical(t *testing.T) {
	content := make([]byte, 5<<20+12345) // not stripe-aligned on purpose
	rng := rand.New(rand.NewSource(1))
	rng.Read(content)
	c, _ := stripedCluster(t, "/big", content, 4)
	c.Telemetry = telemetry.NewRegistry()

	var out bytes.Buffer
	n, err := c.FetchToStriped("/big", &out, StripeConfig{Size: 1 << 20, Streams: 4})
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(content)) {
		t.Fatalf("n = %d, want %d", n, len(content))
	}
	if !bytes.Equal(out.Bytes(), content) {
		t.Fatal("striped reassembly differs from source content")
	}
}

func TestFetchToStripedSpreadsLoad(t *testing.T) {
	content := make([]byte, 8<<20)
	rand.New(rand.NewSource(2)).Read(content)
	c, servers := stripedCluster(t, "/big", content, 4)
	var out bytes.Buffer
	if _, err := c.FetchToStriped("/big", &out, StripeConfig{Size: 1 << 20, Streams: 4}); err != nil {
		t.Fatal(err)
	}
	served := 0
	for _, srv := range servers {
		if srv.bytesOut.Load() > 0 {
			served++
		}
	}
	if served < 2 {
		t.Fatalf("only %d of 4 replicas served bytes — no striping happened", served)
	}
}

func TestFetchToStripedSmallFileFallsBack(t *testing.T) {
	content := []byte("tiny")
	c, _ := stripedCluster(t, "/small", content, 3)
	var out bytes.Buffer
	n, err := c.FetchToStriped("/small", &out, StripeConfig{Size: 1 << 20, Streams: 4})
	if err != nil || n != int64(len(content)) || !bytes.Equal(out.Bytes(), content) {
		t.Fatalf("fallback fetch = %d, %v", n, err)
	}
}

func TestFetchToStripedFailsOverMidStripe(t *testing.T) {
	content := make([]byte, 6<<20)
	rand.New(rand.NewSource(3)).Read(content)
	c, servers := stripedCluster(t, "/big", content, 3)
	// One replica goes dark before the fetch: every stream that lands on
	// it must fail over and the output must still be byte-identical.
	servers[1].SetDown(true)

	var out bytes.Buffer
	n, err := c.FetchToStriped("/big", &out, StripeConfig{Size: 1 << 20, Streams: 3})
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(content)) || !bytes.Equal(out.Bytes(), content) {
		t.Fatal("content mismatch after mid-stripe failover")
	}
}

func TestFetchToStripedAllReplicasDownFails(t *testing.T) {
	content := make([]byte, 4<<20)
	c, servers := stripedCluster(t, "/big", content, 2)
	for _, srv := range servers {
		srv.SetDown(true)
	}
	var out bytes.Buffer
	if _, err := c.FetchToStriped("/big", &out, StripeConfig{Size: 1 << 20, Streams: 2}); err == nil {
		t.Fatal("fetch with all replicas down succeeded")
	}
}

func TestFetchToStripedRejectsDivergentReplica(t *testing.T) {
	content := make([]byte, 4<<20)
	rand.New(rand.NewSource(4)).Read(content)
	c, servers := stripedCluster(t, "/big", content, 3)
	// One replica holds different bytes of the same length: stat-based
	// identity checks must fence it off the stripe set. No selector, so
	// the reference replica is deterministically the first registered.
	c.Selector = nil
	bad := append([]byte(nil), content...)
	bad[1<<20] ^= 0xff
	servers[2].Store("/big", bad)

	var out bytes.Buffer
	n, err := c.FetchToStriped("/big", &out, StripeConfig{Size: 1 << 20, Streams: 3})
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(content)) || !bytes.Equal(out.Bytes(), content) {
		t.Fatal("divergent replica corrupted the striped fetch")
	}
}

// TestFetchToStripedProperty round-trips arbitrary stripe-size /
// file-size / stream-count combinations: whatever the geometry, the
// reassembled bytes must match the source exactly.
func TestFetchToStripedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 12; i++ {
		size := 1 + rng.Intn(3<<20)
		stripe := int64(1 + rng.Intn(1<<20))
		streams := 1 + rng.Intn(5)
		content := make([]byte, size)
		rng.Read(content)
		t.Run(fmt.Sprintf("size=%d/stripe=%d/streams=%d", size, stripe, streams), func(t *testing.T) {
			c, _ := stripedCluster(t, "/p", content, 1+rng.Intn(4))
			var out bytes.Buffer
			n, err := c.FetchToStriped("/p", &out, StripeConfig{Size: stripe, Streams: streams})
			if err != nil {
				t.Fatal(err)
			}
			if n != int64(size) || !bytes.Equal(out.Bytes(), content) {
				t.Fatalf("round-trip failed: n=%d want %d", n, size)
			}
		})
	}
}

func TestFetchToStripedStampsSiteBytes(t *testing.T) {
	content := make([]byte, 4<<20)
	c, _ := stripedCluster(t, "/big", content, 2)
	reg := telemetry.NewRegistry()
	c.Telemetry = reg
	var out bytes.Buffer
	if _, err := c.FetchToStriped("/big", &out, StripeConfig{Size: 1 << 20, Streams: 2}); err != nil {
		t.Fatal(err)
	}
	var total int64
	for i := 0; i < 2; i++ {
		total += reg.SiteBytes("xrootd_client", telemetry.DirIn,
			fmt.Sprintf("T2_US_Site%d", i)).Value()
	}
	if total != int64(len(content)) {
		t.Fatalf("site-labelled bytes = %d, want %d", total, len(content))
	}
}
