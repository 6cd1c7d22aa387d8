package squid

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strings"
	"testing"
	"time"
)

// TestHitAllocs: a hot hit, untraced, allocates nothing on the server
// side. The client is a raw loopback connection that writes a request
// made once and reads the answer into a buffer made once, so the whole
// exchange allocates nothing either. The request carries a Cache-Control
// that is not no-cache: telling the two apart costs the hit nothing.
func TestHitAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("allocations are counted without the race detector")
	}
	origin, _ := newOrigin(nil)
	defer origin.Close()
	p, _ := New(origin.URL, Config{})
	base := listen(t, p)
	nc, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	req := []byte("GET /obj/hot?run=7 HTTP/1.1\r\nHost: squid\r\nCache-Control: max-age=0\r\n\r\n")
	br := bufio.NewReader(nc)
	if _, err := nc.Write(req); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.Header.Get("X-Cache") != "MISS" {
		t.Fatalf("first request: X-Cache %q", resp.Header.Get("X-Cache"))
	}
	waitStats(t, p, "the miss cached", func(s Stats) bool { return s.CachedObjects == 1 })

	// The origin answers with the path alone; net/http sniffed the type.
	want := []byte("HTTP/1.1 200 OK\r\nCache-Control: public, immutable\r\nContent-Length: 13\r\n" +
		"Content-Type: text/plain; charset=utf-8\r\nX-Cache: HIT\r\n\r\nbody:/obj/hot")
	got := make([]byte, len(want))
	var rerr error
	exchange := func() {
		if _, err := nc.Write(req); err != nil {
			rerr = err
			return
		}
		if _, err := io.ReadFull(br, got); err != nil {
			rerr = err
		}
	}
	exchange()
	if rerr != nil || !bytes.Equal(got, want) {
		t.Fatalf("hit: %q, %v; want %q", got, rerr, want)
	}
	if n := testing.AllocsPerRun(200, exchange); n != 0 || rerr != nil {
		t.Errorf("a hot hit allocates %v times (%v)", n, rerr)
	}
	if s := p.Stats(); s.Hits != 202 || s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

// TestStockClientInterop: the squid stays an HTTP/1.1 server any client
// reads. net/http's client fetches a miss and then a hit on one kept-alive
// connection; HEAD and POST get a 405; a GET with a body gets a 400 and a
// hang-up; and an origin that announces no length is an answer the
// squid's origin client does not read: a 502 each time, and nothing cached.
func TestStockClientInterop(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Cache-Control", "public")
		if r.URL.Path == "/nolength" {
			// A flush before the end sends the body chunked: the proxy
			// learns no length from its origin.
			w.Write([]byte("first half, "))
			w.(http.Flusher).Flush()
		}
		w.Write([]byte("body of " + r.URL.Path))
	}))
	defer origin.Close()
	p, _ := New(origin.URL, Config{})
	base := listen(t, p)
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 10 * time.Second}

	do := func(method, path string, body io.Reader) (resp *http.Response, text string, reused bool) {
		t.Helper()
		ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
			GotConn: func(info httptrace.GotConnInfo) { reused = info.Reused },
		})
		req, err := http.NewRequestWithContext(ctx, method, base+path, body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err = client.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s %s: reading the body: %v", method, path, err)
		}
		return resp, string(b), reused
	}

	resp, text, _ := do("GET", "/obj/a", nil)
	if text != "body of /obj/a" || resp.Header.Get("X-Cache") != "MISS" || resp.ContentLength != int64(len(text)) {
		t.Fatalf("miss: %q, X-Cache %q, length %d", text, resp.Header.Get("X-Cache"), resp.ContentLength)
	}
	resp, text, reused := do("GET", "/obj/a", nil)
	if text != "body of /obj/a" || resp.Header.Get("X-Cache") != "HIT" || resp.Header.Get("Cache-Control") != "public" {
		t.Fatalf("hit: %q, header %v", text, resp.Header)
	}
	if !reused {
		t.Error("the hit did not reuse the miss's connection")
	}

	for _, method := range []string{"HEAD", "POST"} {
		if resp, _, _ := do(method, "/obj/a", strings.NewReader("x")); resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s: status %d, want 405", method, resp.StatusCode)
		}
	}
	resp, _, _ = do("GET", "/obj/a", strings.NewReader("a body"))
	if resp.StatusCode != http.StatusBadRequest || !resp.Close {
		t.Errorf("GET with a body: status %d, close %v; want a 400 and a hang-up", resp.StatusCode, resp.Close)
	}
	if _, _, reused := do("GET", "/obj/a", nil); reused {
		t.Error("a connection the proxy refused a request on was used again")
	}

	before := p.Stats().CachedObjects
	for i := 0; i < 2; i++ {
		resp, text, _ := do("GET", "/nolength", nil)
		if resp.StatusCode != http.StatusBadGateway || !strings.Contains(text, "Content-Length") {
			t.Fatalf("no length, fetch %d: status %d, %q; want a 502 naming the missing length", i, resp.StatusCode, text)
		}
	}
	if st := p.Stats(); st.CachedObjects != before || st.OriginErrors != 2 {
		t.Errorf("no length: %d objects cached (%d before), %d origin errors; want nothing cached and 2 errors",
			st.CachedObjects, before, st.OriginErrors)
	}
}

// TestRequestsOutOfProtocol: on a raw connection, each request the proxy
// will not read on gets its status with Connection: close, and then the
// proxy hangs up.
func TestRequestsOutOfProtocol(t *testing.T) {
	origin, hits := newOrigin(nil)
	defer origin.Close()
	p, _ := New(origin.URL, Config{})
	addr := strings.TrimPrefix(listen(t, p), "http://")
	for _, tc := range []struct{ name, req, status string }{
		{"line past the buffer", "GET /" + strings.Repeat("x", 5000) + " HTTP/1.1\r\nHost: s\r\n\r\n", "400"},
		{"header past the buffer", "GET /a HTTP/1.1\r\nHost: s\r\nX: " + strings.Repeat("x", 5000) + "\r\n\r\n", "400"},
		{"no version", "GET /a\r\nHost: s\r\n\r\n", "400"},
		{"HTTP/2.0", "GET /a HTTP/2.0\r\nHost: s\r\n\r\n", "400"},
		{"bare CR", "GET /a HTTP/1.1\r\r\nHost: s\r\n\r\n", "400"},
		{"no Host", "GET /a HTTP/1.1\r\n\r\n", "400"},
		{"two Hosts", "GET /a HTTP/1.1\r\nHost: s\r\nHost: t\r\n\r\n", "400"},
		{"folded header", "GET /a HTTP/1.1\r\nHost: s\r\nX: a\r\n b\r\n\r\n", "400"},
		{"bad escape", "GET /a%zz HTTP/1.1\r\nHost: s\r\n\r\n", "400"},
		{"another scheme", "GET https://s/a HTTP/1.1\r\nHost: s\r\n\r\n", "400"},
		{"chunked", "GET /a HTTP/1.1\r\nHost: s\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n", "400"},
		{"a body", "GET /a HTTP/1.1\r\nHost: s\r\nContent-Length: 3\r\n\r\nabc", "400"},
		{"two lengths", "GET /a HTTP/1.1\r\nHost: s\r\nContent-Length: 0\r\nContent-Length: 00\r\n\r\n", "400"},
		{"PUT", "PUT /a HTTP/1.1\r\nHost: s\r\nContent-Length: 3\r\n\r\nabc", "405"},
	} {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		nc.SetDeadline(time.Now().Add(5 * time.Second))
		// A request followed by a good one: the proxy must not read on.
		nc.Write([]byte(tc.req + "GET /obj/next HTTP/1.1\r\nHost: s\r\n\r\n"))
		got, err := io.ReadAll(nc)
		nc.Close()
		if err != nil {
			t.Errorf("%s: %v (want a hang-up after the answer)", tc.name, err)
			continue
		}
		if !bytes.HasPrefix(got, []byte("HTTP/1.1 "+tc.status+" ")) || !bytes.Contains(got, []byte("\r\nConnection: close\r\n")) ||
			bytes.Count(got, []byte("HTTP/1.1 ")) != 1 {
			t.Errorf("%s: answered %q; want one %s with Connection: close", tc.name, got, tc.status)
		}
	}
	if n := hits.Load(); n != 0 {
		t.Errorf("the origin saw %d requests", n)
	}
}

// TestConnectionPersistence: a connection stays open after an HTTP/1.1
// request. It ends after an HTTP/1.0 one, Keep-Alive or not, and after
// one whose Connection list holds close, as in "keep-alive, close". A
// target in absolute form is the same cache key as its path.
func TestConnectionPersistence(t *testing.T) {
	origin, hits := newOrigin(nil)
	defer origin.Close()
	p, _ := New(origin.URL, Config{})
	base := listen(t, p)
	get(t, base+"/obj/a")
	for _, tc := range []struct {
		name, req string
		open      bool
	}{
		{"HTTP/1.1", "GET /obj/a HTTP/1.1\r\nHost: s\r\n\r\n", true},
		{"absolute form", "GET " + base + "/obj/a HTTP/1.1\r\nHost: s\r\n\r\n", true},
		{"HTTP/1.0", "GET /obj/a HTTP/1.0\r\n\r\n", false},
		{"HTTP/1.0 keep-alive", "GET /obj/a HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n", false},
		{"token list", "GET /obj/a HTTP/1.1\r\nHost: s\r\nConnection: keep-alive, close\r\n\r\n", false},
	} {
		nc, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
		if err != nil {
			t.Fatal(err)
		}
		nc.SetDeadline(time.Now().Add(5 * time.Second))
		br := bufio.NewReader(nc)
		for i := 0; i < 2; i++ {
			nc.Write([]byte(tc.req))
			resp, err := http.ReadResponse(br, nil)
			if !tc.open && i == 1 {
				if err == nil {
					t.Errorf("%s: the proxy answered a second request on a connection it closes", tc.name)
				}
				break
			}
			if err != nil {
				t.Fatalf("%s, request %d: %v", tc.name, i, err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			// net/http's reader turns a Connection: close into Response.Close.
			if string(body) != "body:/obj/a" || resp.Header.Get("X-Cache") != "HIT" || resp.Close == tc.open {
				t.Errorf("%s, request %d: %q, header %v", tc.name, i, body, resp.Header)
			}
		}
		nc.Close()
	}
	if n := hits.Load(); n != 1 {
		t.Errorf("the origin saw %d requests, want the first one only", n)
	}
}
