package squid

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"lobster/internal/faultinject"
	"lobster/internal/retry"
)

// TestOriginFaultVerdicts drives each verdict of the squid_origin seam
// through a real proxy with one retry: delay stalls through the
// injector's sleep and then fetches; error and drop fail the attempt
// before it reaches the origin, and the retry fetches; stall-kill stalls
// and then fails the same way; corrupt fetches and flips the first body
// byte. A corrupted body is what a squid would keep of a transfer
// corrupted on its way in: a hit serves it, and a no-cache request
// replaces it with the origin's bytes.
func TestOriginFaultVerdicts(t *testing.T) {
	for _, tc := range []struct {
		act     faultinject.Action
		stalls  int
		corrupt bool
	}{
		{faultinject.ActDelay, 1, false},
		{faultinject.ActError, 0, false},
		{faultinject.ActDrop, 0, false},
		{faultinject.ActStallKill, 1, false},
		{faultinject.ActCorrupt, 0, true},
	} {
		t.Run(string(tc.act), func(t *testing.T) {
			origin, hits := newOrigin(nil)
			defer origin.Close()
			in := faultinject.New(&faultinject.Plan{Rules: []faultinject.Rule{
				{Component: "squid_origin", Op: "roundtrip", Action: tc.act, DelayMS: 7, Times: 1}}})
			var mu sync.Mutex // the pump stalls, the test reads
			var stalls []time.Duration
			in.SetSleep(func(d time.Duration) {
				mu.Lock()
				stalls = append(stalls, d)
				mu.Unlock()
			})
			p, err := New(origin.URL, Config{Fault: in, Retry: retry.Policy{MaxAttempts: 2, Sleep: func(time.Duration) {}}})
			if err != nil {
				t.Fatal(err)
			}
			base := listen(t, p)

			want := "body:/obj/v"
			if tc.corrupt {
				want = string([]byte{want[0] ^ 0xff}) + want[1:]
			}
			body, xcache := get(t, base+"/obj/v")
			if body != want || xcache != "MISS" {
				t.Errorf("miss: %q, X-Cache %q; want %q", body, xcache, want)
			}
			if n := hits.Load(); n != 1 {
				t.Errorf("origin saw %d requests, want 1", n)
			}
			mu.Lock()
			if len(stalls) != tc.stalls || tc.stalls > 0 && stalls[0] != 7*time.Millisecond {
				t.Errorf("stalls %v, want %d of 7ms", stalls, tc.stalls)
			}
			mu.Unlock()
			if in.Fired("squid_origin", "roundtrip") != 1 || p.Stats().OriginErrors != 0 {
				t.Errorf("fired %d, origin errors %d; want 1, 0", in.Fired("squid_origin", "roundtrip"), p.Stats().OriginErrors)
			}
			waitStats(t, p, "the miss cached", func(s Stats) bool { return s.CachedObjects == 1 })
			if body, xcache := get(t, base+"/obj/v"); body != want || xcache != "HIT" {
				t.Errorf("hit: %q, X-Cache %q; want %q", body, xcache, want)
			}
			if tc.corrupt {
				req, _ := http.NewRequest("GET", base+"/obj/v", nil)
				req.Header.Set("Cache-Control", "no-cache")
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if body, _ := get(t, base+"/obj/v"); body != "body:/obj/v" {
					t.Errorf("after a no-cache refetch the cache serves %q", body)
				}
			}
		})
	}
}

// TestOriginFaultFailsTheAttempt: with no retry, an error-like verdict is
// the fetch's failure: a 502 that names the injected fault, nothing
// cached, and the origin never asked.
func TestOriginFaultFailsTheAttempt(t *testing.T) {
	origin, hits := newOrigin(nil)
	defer origin.Close()
	in := faultinject.New(&faultinject.Plan{Rules: []faultinject.Rule{
		{Component: "squid_origin", Op: "roundtrip", Action: faultinject.ActDrop, Times: 1}}})
	p, err := New(origin.URL, Config{Fault: in})
	if err != nil {
		t.Fatal(err)
	}
	base := listen(t, p)
	resp, err := http.Get(base + "/obj/d")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway || !strings.Contains(string(text), "faultinject: squid_origin/roundtrip") {
		t.Errorf("status %d, %q; want a 502 naming the injected fault", resp.StatusCode, text)
	}
	if hits.Load() != 0 || p.Stats().CachedObjects != 0 {
		t.Errorf("%d origin requests, %d cached; want 0, 0", hits.Load(), p.Stats().CachedObjects)
	}
	if body, xcache := get(t, base+"/obj/d"); body != "body:/obj/d" || xcache != "MISS" {
		t.Errorf("after the fault: %q, X-Cache %q", body, xcache)
	}
}
