package frontier

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"lobster/internal/squid"
)

func TestPublishAndLookup(t *testing.T) {
	s := NewService()
	if err := s.Publish(Payload{Tag: "align", FirstRun: 1, LastRun: 100, Data: []byte("v1")}); err != nil {
		t.Fatal(err)
	}
	if err := s.Publish(Payload{Tag: "align", FirstRun: 101, LastRun: 200, Data: []byte("v2")}); err != nil {
		t.Fatal(err)
	}
	p, err := s.Lookup("align", 150)
	if err != nil || string(p.Data) != "v2" {
		t.Fatalf("lookup: %v, %v", p, err)
	}
	if _, err := s.Lookup("align", 500); err == nil {
		t.Error("out-of-interval run resolved")
	}
	if _, err := s.Lookup("other", 50); err == nil {
		t.Error("unknown tag resolved")
	}
}

func TestPublishRejectsOverlapAndBadInput(t *testing.T) {
	s := NewService()
	s.Publish(Payload{Tag: "t", FirstRun: 10, LastRun: 20})
	if err := s.Publish(Payload{Tag: "t", FirstRun: 15, LastRun: 30}); err == nil {
		t.Error("overlapping interval accepted")
	}
	if err := s.Publish(Payload{Tag: "t", FirstRun: 30, LastRun: 25}); err == nil {
		t.Error("inverted interval accepted")
	}
	if err := s.Publish(Payload{FirstRun: 1, LastRun: 2}); err == nil {
		t.Error("empty tag accepted")
	}
	// Non-overlapping publish on the same tag still works.
	if err := s.Publish(Payload{Tag: "t", FirstRun: 21, LastRun: 30}); err != nil {
		t.Errorf("adjacent interval rejected: %v", err)
	}
}

func TestHTTPAndClient(t *testing.T) {
	s := NewService()
	s.Publish(Payload{Tag: "beam", FirstRun: 1, LastRun: 10, Data: []byte("spot")})
	ts := httptest.NewServer(s)
	defer ts.Close()

	c := &Client{Base: ts.URL}
	p, err := c.Fetch("beam", 5)
	if err != nil || string(p.Data) != "spot" {
		t.Fatalf("fetch: %v, %v", p, err)
	}
	if _, err := c.Fetch("beam", 99); err == nil {
		t.Error("missing payload fetched")
	}
}

func TestFrontierThroughSquid(t *testing.T) {
	s := NewService()
	s.Publish(Payload{Tag: "calib", FirstRun: 1, LastRun: 1000, Data: []byte("x")})
	var requests atomic.Int64 // requests reaching the origin
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		s.ServeHTTP(w, r)
	}))
	defer origin.Close()
	proxy, err := squid.New(origin.URL, squid.Config{})
	if err != nil {
		t.Fatal(err)
	}
	proxyURL, err := proxy.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	c := &Client{Base: proxyURL}
	for i := 0; i < 5; i++ {
		if _, err := c.Fetch("calib", 42); err != nil {
			t.Fatal(err)
		}
	}
	if n := requests.Load(); n != 1 {
		t.Errorf("origin saw %d requests; proxy not caching conditions", n)
	}
	if proxy.Stats().Hits != 4 {
		t.Errorf("proxy hits = %d", proxy.Stats().Hits)
	}
	// A payload past net/http's 2 KiB chunking threshold still comes with
	// a length, as a miss and as a hit, which is all the client reads.
	big := bytes.Repeat([]byte("calibration "), 1000)
	s.Publish(Payload{Tag: "big", FirstRun: 1, LastRun: 1000, Data: big})
	for i := 0; i < 2; i++ {
		if p, err := c.Fetch("big", 42); err != nil || !bytes.Equal(p.Data, big) {
			t.Fatalf("fetch %d of a %d-byte payload: %v", i, len(big), err)
		}
	}
}
