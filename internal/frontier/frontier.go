// Package frontier implements a conditions-data service modelled on the CMS
// Frontier system: detector calibration and alignment payloads, keyed by
// experiment run and tag, distributed from a central server through the same
// HTTP proxy hierarchy that serves CVMFS (package squid).
//
// Payloads for a given (tag, run) interval-of-validity are immutable, so
// responses carry cache headers that let squid absorb nearly all load — the
// paper's analysis jobs hit Frontier once per task for the run being
// processed.
//
// The Service is an origin like any other and answers through net/http;
// the squid in front of it answers on internal/wire.
// The Client is the worker's end of that once-per-task GET: the query and
// the payload decode over wire.HTTPClient, the module's one GET client,
// which parks a keep-alive connection between tasks, writes the request
// and reads the response in place, and gives each fetch one deadline
// (DESIGN.md §10, "One wire").
package frontier

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"

	"lobster/internal/bufpool"
	"lobster/internal/trace"
	"lobster/internal/wire"
)

// Payload is one conditions record with an inclusive run interval of
// validity.
type Payload struct {
	Tag      string `json:"tag"`
	FirstRun int    `json:"first_run"`
	LastRun  int    `json:"last_run"`
	Data     []byte `json:"data"`
}

// Service stores conditions payloads and serves them over HTTP at
// /frontier/payload?tag=<tag>&run=<run>. Safe for concurrent use.
type Service struct {
	mu       sync.RWMutex
	payloads map[string][]Payload // tag → payloads sorted by FirstRun
}

// NewService returns an empty conditions service.
func NewService() *Service {
	return &Service{payloads: make(map[string][]Payload)}
}

// Publish registers a payload. Overlapping intervals for one tag are
// rejected: a run must resolve to exactly one payload.
func (s *Service) Publish(p Payload) error {
	if p.Tag == "" {
		return fmt.Errorf("frontier: payload needs a tag")
	}
	if p.LastRun < p.FirstRun {
		return fmt.Errorf("frontier: invalid run interval [%d,%d]", p.FirstRun, p.LastRun)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	list := s.payloads[p.Tag]
	for _, q := range list {
		if p.FirstRun <= q.LastRun && q.FirstRun <= p.LastRun {
			return fmt.Errorf("frontier: tag %s: interval [%d,%d] overlaps [%d,%d]",
				p.Tag, p.FirstRun, p.LastRun, q.FirstRun, q.LastRun)
		}
	}
	list = append(list, p)
	sort.Slice(list, func(i, j int) bool { return list[i].FirstRun < list[j].FirstRun })
	s.payloads[p.Tag] = list
	return nil
}

// Lookup returns the payload valid for (tag, run).
func (s *Service) Lookup(tag string, run int) (*Payload, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for i := range s.payloads[tag] {
		p := &s.payloads[tag][i]
		if run >= p.FirstRun && run <= p.LastRun {
			return p, nil
		}
	}
	return nil, fmt.Errorf("frontier: no payload for tag %s run %d", tag, run)
}

// ServeHTTP implements http.Handler.
func (s *Service) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/frontier/payload" {
		http.NotFound(w, r)
		return
	}
	tag := r.URL.Query().Get("tag")
	run, err := strconv.Atoi(r.URL.Query().Get("run"))
	if err != nil {
		http.Error(w, "frontier: bad run number", http.StatusBadRequest)
		return
	}
	p, err := s.Lookup(tag, run)
	if err != nil {
		http.NotFound(w, r)
		return
	}
	body, err := json.Marshal(p)
	if err != nil {
		http.Error(w, "frontier: encoding payload: "+err.Error(), http.StatusInternalServerError)
		return
	}
	// Valid payloads never change: cacheable by the proxy layer. The
	// length is announced, so a payload of any size reaches a client
	// that reads only a Content-Length body (Client) unchunked.
	h := w.Header()
	h.Set("Cache-Control", "public, max-age=86400")
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)+1))
	w.Write(append(body, '\n'))
}

// Client fetches conditions through an HTTP base URL (direct or proxy).
//
// A conditions GET is the one request of an analysis task that every task
// makes, so it rides the module's one GET client, wire.HTTPClient, whose
// parked connections and in-place reads cost a hot fetch nothing but the
// payload's decode. What is left here is the query and the decode: the
// body, at most maxBody, lands in a pooled buffer and is decoded from
// there. A payload that does not decode fails the fetch and hangs the
// connection up, like every answer the client does not read.
//
// The zero value with Base set is ready to use; the connections are made
// on the first fetch. Close hangs up the parked ones. Safe for concurrent
// use.
type Client struct {
	Base string

	once sync.Once
	http *wire.HTTPClient
	err  error // Base is not an http URL
}

// maxBody bounds the payload a response may announce. Conditions payloads
// are calibration constants, kilobytes at most; a length past this is not
// a payload this client reads.
const maxBody = 1 << 20

func (c *Client) init() {
	if c.http, c.err = wire.NewHTTPClient(c.Base); c.err != nil {
		c.err = fmt.Errorf("frontier: %w", c.err)
	}
}

// Fetch returns the payload for (tag, run).
func (c *Client) Fetch(tag string, run int) (*Payload, error) {
	return c.FetchTraced(tag, run, trace.Context{})
}

// FetchTraced is Fetch for a traced task: the request carries ctx in the
// Lobster-Trace header, so the proxy's span chains under the caller's.
func (c *Client) FetchTraced(tag string, run int, ctx trace.Context) (*Payload, error) {
	c.once.Do(c.init)
	if c.err != nil {
		return nil, c.err
	}
	var query [128]byte
	p := new(Payload)
	err := c.http.WithTrace(ctx).Get(appendQuery(query[:0], tag, run), false, maxBody, nil, func(r io.Reader, n int64) error {
		buf := bufpool.GetSized(int(n))
		defer bufpool.PutSized(buf)
		if _, err := io.ReadFull(r, *buf); err != nil {
			return fmt.Errorf("http: reading a %d-byte body: %w", n, err)
		}
		if err := json.Unmarshal(*buf, p); err != nil {
			return fmt.Errorf("decoding payload: %w", err)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("frontier: fetching %s/%d: %w", tag, run, err)
	}
	return p, nil
}

// appendQuery appends the target of (tag, run) to b, in the order the
// proxy has always cached it under.
func appendQuery(b []byte, tag string, run int) []byte {
	b = append(b, "/frontier/payload?run="...)
	b = strconv.AppendInt(b, int64(run), 10)
	b = append(b, "&tag="...)
	return append(b, url.QueryEscape(tag)...)
}

// Close hangs up the parked connections; a later fetch dials afresh.
func (c *Client) Close() error {
	c.once.Do(c.init)
	if c.http == nil {
		return nil
	}
	return c.http.Close()
}
