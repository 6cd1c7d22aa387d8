package chirp

import (
	"testing"

	"lobster/internal/telemetry"
)

// TestSiteLabelledBytes pins the Figure-9 accounting shape: a pool
// given a Site stamps that site on its connections' lobster_bytes_total
// series, both directions, so per-site transfer volume falls out of one
// label query.
func TestSiteLabelledBytes(t *testing.T) {
	srv, _ := newTestServer(t, 4)
	reg := telemetry.NewRegistry()
	p := NewPool(PoolOptions{Addr: srv.Addr(), Telemetry: reg, Site: "T3_US_NotreDame"})
	defer p.Close()
	payload := []byte("site-stamped payload")
	if err := p.PutFile("/f", payload); err != nil {
		t.Fatal(err)
	}
	if _, err := p.GetFile("/f"); err != nil {
		t.Fatal(err)
	}
	out := reg.SiteBytes("chirp_client", telemetry.DirOut, "T3_US_NotreDame").Value()
	in := reg.SiteBytes("chirp_client", telemetry.DirIn, "T3_US_NotreDame").Value()
	if out != int64(len(payload)) || in != int64(len(payload)) {
		t.Fatalf("site bytes = in %d out %d, want %d each", in, out, len(payload))
	}
	// The unstamped series stays untouched: site-labelled transfers are
	// counted once, not double-counted against the bare series.
	if n := reg.Bytes("chirp_client", telemetry.DirIn).Value(); n != 0 {
		t.Fatalf("unlabelled series counted %d bytes alongside the site series", n)
	}
}

func TestPoolPropagatesSite(t *testing.T) {
	srv, _ := newTestServer(t, 4)
	reg := telemetry.NewRegistry()
	p := NewPool(PoolOptions{Addr: srv.Addr(), Telemetry: reg, Site: "T2_US_Nebraska"})
	defer p.Close()
	if err := p.PutFile("/g", []byte("pooled")); err != nil {
		t.Fatal(err)
	}
	if n := reg.SiteBytes("chirp_client", telemetry.DirOut, "T2_US_Nebraska").Value(); n != 6 {
		t.Fatalf("pooled site bytes = %d, want 6", n)
	}
}
