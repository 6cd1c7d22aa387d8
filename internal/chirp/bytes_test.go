package chirp

import (
	"testing"

	"lobster/internal/telemetry"
)

// TestPoolCountsBytes: a pool counts its connections' payload bytes on
// the chirp_client series of lobster_bytes_total, both directions.
func TestPoolCountsBytes(t *testing.T) {
	srv, _ := newTestServer(t, 4)
	reg := telemetry.NewRegistry()
	p := NewPool(PoolOptions{Addr: srv.Addr(), Telemetry: reg})
	defer p.Close()
	payload := []byte("counted payload")
	if err := p.PutFile("/f", payload); err != nil {
		t.Fatal(err)
	}
	if _, err := poolGet(p, "/f"); err != nil {
		t.Fatal(err)
	}
	out := reg.Bytes("chirp_client", telemetry.DirOut).Value()
	in := reg.Bytes("chirp_client", telemetry.DirIn).Value()
	if out != int64(len(payload)) || in != int64(len(payload)) {
		t.Fatalf("bytes = in %d out %d, want %d each", in, out, len(payload))
	}
}
