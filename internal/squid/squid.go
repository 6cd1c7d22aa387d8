// Package squid implements a caching HTTP proxy in the role the Squid
// proxies play in the paper: absorbing the load that thousands of worker
// caches would otherwise place on the CVMFS repository and the Frontier
// conditions service.
//
// The proxy caches successful GET responses in an LRU bounded by bytes,
// coalesces concurrent misses for the same URL into a single origin fetch
// (exactly the behaviour that makes a cold-start "wave" of identical
// requests survivable), and bounds concurrent origin connections. Proxies
// chain: a site proxy's origin may itself be another proxy.
//
// Clients reach it over HTTP/1.1 on a wire.Server of its own (Listen):
// it reads each request in place with wire.Conn.ReadLine and
// wire.Conn.ReadHeader, and a hit writes a header block made once per
// entry and then the body, so a hot hit allocates nothing (DESIGN.md
// section 10, "The squid answers on the wire"). Its origin side is the
// module's one GET client, wire.HTTPClient: a miss streams from the
// origin through it in chunks, and an origin answer it does not read —
// one without a Content-Length included — is a 502 that caches nothing.
package squid

import (
	"bufio"
	"bytes"
	"container/list"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"lobster/internal/bufpool"
	"lobster/internal/faultinject"
	"lobster/internal/retry"
	"lobster/internal/telemetry"
	"lobster/internal/trace"
	"lobster/internal/wire"
)

// Stats is a snapshot of proxy counters.
type Stats struct {
	Hits          int64
	Misses        int64
	OriginErrors  int64
	BytesServed   int64
	BytesFetched  int64 // from origin (misses only)
	CachedObjects int
	CachedBytes   int64
	Evictions     int64
	Coalesced     int64 // requests satisfied by piggybacking on an in-flight fetch
}

// HitRate returns hits / (hits+misses), or 0 with no traffic.
func (s Stats) HitRate() float64 {
	t := s.Hits + s.Misses
	if t == 0 {
		return 0
	}
	return float64(s.Hits) / float64(t)
}

// maxOriginConns bounds concurrent origin fetches.
const maxOriginConns = 64

// Config tunes a Proxy.
type Config struct {
	// CapacityBytes bounds the cache size. Zero means 1 GiB.
	CapacityBytes int64
	// Fault, when non-nil, is consulted once per origin attempt under
	// ("squid_origin", "roundtrip"): delay stalls, then fetches; error and
	// drop fail the attempt, retryably; stall-kill stalls, then fails;
	// corrupt flips the first body byte the origin sends.
	Fault *faultinject.Injector
	// Telemetry, when non-nil, gets the proxy's counters, bytes fetched
	// and served also as lobster_bytes_total{component="squid"}, and its
	// gauges. One proxy per registry.
	Telemetry *telemetry.Registry
	// Tracer, when non-nil, gives requests carrying a Lobster-Trace
	// header a span recording the cache outcome (hit, miss, or
	// coalesced), and origin fetches a child span whose context is
	// forwarded in the outgoing header, so chained proxies and the origin
	// server extend the same trace.
	Tracer *trace.Tracer
	// Retry bounds repeated origin fetches on transport failures and 5xx
	// responses. The zero Policy keeps the old single-attempt behaviour.
	// Coalesced waiters share the retried fetch, so a storm of identical
	// requests still costs one origin attempt sequence.
	Retry retry.Policy
}

// Proxy is a caching HTTP proxy in front of a single origin base URL:
// the path and query a client asks for are appended to the origin base.
// Listen serves it. Safe for concurrent use.
type Proxy struct {
	origin     *wire.HTTPClient
	originHost string // the origin span's attribute
	fault      *faultinject.Injector
	retry      retry.Policy
	sem        chan struct{}
	srv        *wire.Server

	mu       sync.Mutex
	capacity int64
	used     int64
	lru      *list.List               // of *entry, front = most recent
	items    map[string]*list.Element // key → element
	inflight map[string]*stream

	// The counters Stats reports, counting from construction, and
	// published as they are when the proxy is built with a registry.
	hits, misses, coalesced, originErrors, evictions telemetry.Counter
	bytesServed, bytesFetched                        telemetry.Counter

	tracer *trace.Tracer
}

type entry struct {
	key  string
	body []byte
	// head is the status line and the header block of a hit, up to the
	// line that says how the connection goes on (endHead), made once at
	// insert: a hit writes it, that line and the body, and allocates
	// nothing. It announces the length, which is all frontier's client
	// reads.
	head []byte
}

// stream is one in-flight origin fetch shared by every request that
// coalesced onto it. The pump goroutine appends body bytes as they
// arrive from the origin and broadcasts; consumers copy whatever is new
// to their own client and wait for more. That way a cold-start wave is
// served at origin line rate instead of stalling every waiter until the
// last byte lands.
type stream struct {
	mu   sync.Mutex
	cond sync.Cond

	ctype, cc string // the origin's Content-Type and Cache-Control
	size      int64  // the origin's Content-Length
	hdrReady  bool
	buf       []byte
	done      bool
	err       error
}

func newStream() *stream {
	st := new(stream)
	st.cond.L = &st.mu
	return st
}

// publishHeaders releases consumers to start writing their responses.
// The body is reserved at its announced size, up to bufpool.MaxSized, as
// a bufpool.Arrival reserves it: it lands in one allocation, not in a
// buffer that doubles as it fills.
func (st *stream) publishHeaders(ctype, cc string, size int64) {
	st.mu.Lock()
	st.ctype, st.cc = ctype, cc
	st.size = size
	st.buf = make([]byte, 0, min(size, bufpool.MaxSized))
	st.hdrReady = true
	st.mu.Unlock()
	st.cond.Broadcast()
}

// append publishes body bytes to the consumers. p is copied: callers
// reuse their read buffer.
func (st *stream) append(p []byte) {
	if len(p) == 0 {
		return
	}
	st.mu.Lock()
	st.buf = append(st.buf, p...)
	st.mu.Unlock()
	st.cond.Broadcast()
}

// finish marks the stream complete (err nil) or failed.
func (st *stream) finish(err error) {
	st.mu.Lock()
	st.done = true
	st.err = err
	st.mu.Unlock()
	st.cond.Broadcast()
}

// New returns a proxy forwarding cache misses to the origin base URL.
func New(origin string, cfg Config) (*Proxy, error) {
	client, err := wire.NewHTTPClient(origin)
	if err != nil {
		return nil, fmt.Errorf("squid: bad origin: %w", err)
	}
	u, _ := url.Parse(origin) // NewHTTPClient parsed it
	if cfg.CapacityBytes <= 0 {
		cfg.CapacityBytes = 1 << 30
	}
	p := &Proxy{
		origin:     client,
		originHost: u.Host,
		fault:      cfg.Fault,
		tracer:     cfg.Tracer,
		retry:      cfg.Retry,
		sem:        make(chan struct{}, maxOriginConns),
		capacity:   cfg.CapacityBytes,
		lru:        list.New(),
		items:      make(map[string]*list.Element),
		inflight:   make(map[string]*stream),
	}
	reg := cfg.Telemetry
	reg.CounterVec("lobster_squid_hits_total",
		"Requests served from the proxy cache.").Publish(&p.hits)
	reg.CounterVec("lobster_squid_misses_total",
		"Requests that triggered an origin fetch.").Publish(&p.misses)
	reg.CounterVec("lobster_squid_coalesced_total",
		"Requests satisfied by piggybacking on an in-flight origin fetch.").Publish(&p.coalesced)
	reg.CounterVec("lobster_squid_origin_errors_total",
		"Origin fetches that failed.").Publish(&p.originErrors)
	reg.CounterVec("lobster_squid_evictions_total",
		"Cache entries evicted to make room.").Publish(&p.evictions)
	reg.CounterVec("lobster_squid_bytes_served_total",
		"Response bytes served to clients.").Publish(&p.bytesServed)
	reg.CounterVec("lobster_squid_bytes_fetched_total",
		"Bytes fetched from the origin (misses only).").Publish(&p.bytesFetched)
	reg.BytesVec().Publish(&p.bytesFetched, "squid", telemetry.DirIn, "")
	reg.BytesVec().Publish(&p.bytesServed, "squid", telemetry.DirOut, "")
	reg.GaugeFunc("lobster_squid_hit_ratio",
		"Cache hit ratio: hits / (hits + misses).",
		func() float64 { return p.Stats().HitRate() })
	reg.GaugeFunc("lobster_squid_cached_bytes",
		"Bytes currently held in the proxy cache.",
		func() float64 {
			p.mu.Lock()
			defer p.mu.Unlock()
			return float64(p.used)
		})
	reg.GaugeFunc("lobster_squid_cached_objects",
		"Objects currently held in the proxy cache.",
		func() float64 {
			p.mu.Lock()
			defer p.mu.Unlock()
			return float64(p.lru.Len())
		})
	reg.GaugeFunc("lobster_squid_origin_inflight",
		"Origin fetches currently in flight (at most 64).",
		func() float64 { return float64(len(p.sem)) })
	return p, nil
}

// Stats returns a snapshot of the proxy counters, each exact at its own
// read instant.
func (p *Proxy) Stats() Stats {
	p.mu.Lock()
	objects, used := p.lru.Len(), p.used
	p.mu.Unlock()
	return Stats{
		Hits:          p.hits.Value(),
		Misses:        p.misses.Value(),
		OriginErrors:  p.originErrors.Value(),
		BytesServed:   p.bytesServed.Value(),
		BytesFetched:  p.bytesFetched.Value(),
		CachedObjects: objects,
		CachedBytes:   used,
		Evictions:     p.evictions.Value(),
		Coalesced:     p.coalesced.Value(),
	}
}

// Listen serves the proxy's clients on addr ("127.0.0.1:0" picks a
// port) and returns the base URL they reach it at. Close hangs them up.
func (p *Proxy) Listen(addr string) (string, error) {
	if p.srv != nil {
		return "", errors.New("squid: already listening")
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("squid: %w", err)
	}
	p.srv = wire.Serve(lis, p.serve)
	return "http://" + lis.Addr().String(), nil
}

// Close stops listening, hangs up every client connection, parked ones
// included, and waits for the requests being answered on them; then it
// hangs up the connections parked to the origin.
func (p *Proxy) Close() error {
	var err error
	if p.srv != nil {
		err = p.srv.Close()
	}
	return errors.Join(err, p.origin.Close())
}

// held is a client's socket as its wire.Conn sees it: a failure breaks
// the Conn but leaves the socket open, so a refused request is still
// answered before the hang-up. The accept loop closes the socket once
// serve returns, and at Close.
type held struct{ net.Conn }

func (held) Close() error { return nil }

// serve answers the requests of one client connection in turn, until
// the client hangs up, a request is refused, or an answer ends the
// connection.
func (p *Proxy) serve(nc net.Conn) {
	c := wire.NewConn(wire.ProtoHTTP, held{nc}, 4<<10, 4<<10)
	var req request // its buffers serve every request on c
	for {
		if err := readRequest(c, &req); err != nil {
			var ref *refusal
			if errors.As(err, &ref) {
				writeText(c.W, &request{close: true}, ref.status, ref.text)
				if c.W.Flush() == nil {
					hangUp(nc)
				}
			}
			return
		}
		if !p.answer(c, &req) {
			return
		}
	}
}

// hangUp ends a connection whose last request was refused. It half-closes
// first and reads whatever the client still sends until the client hangs
// up too, for at most a second: closing a socket with unread bytes (a
// refused request's body) resets it, and the reset can overtake the
// answer on its way to the client.
func hangUp(nc net.Conn) {
	cw, ok := nc.(interface{ CloseWrite() error })
	if !ok || cw.CloseWrite() != nil {
		return
	}
	nc.SetReadDeadline(time.Now().Add(time.Second))
	io.Copy(io.Discard, nc)
}

// answer serves one accepted request and reports whether the connection
// stays open for the next.
func (p *Proxy) answer(c *wire.Conn, req *request) bool {
	var ctx trace.Context
	var sp *trace.Span
	if p.tracer != nil {
		if ctx = req.context(); ctx.Valid() {
			sp = p.tracer.Start(ctx, "squid", "proxy_get")
			sp.Attr("key", string(req.key))
		}
	}

	p.mu.Lock()
	if el, ok := p.items[string(req.key)]; ok && !req.noCache {
		p.lru.MoveToFront(el)
		ent := el.Value.(*entry)
		p.mu.Unlock()
		p.hits.Inc()
		sp.Attr("outcome", outcomeHit)
		sp.AttrInt("bytes", int64(len(ent.body)))
		sp.End()
		p.bytesServed.Add(int64(len(ent.body)))
		c.W.Write(ent.head)
		endHead(c.W, req)
		c.W.Write(ent.body)
		return c.W.Flush() == nil && !req.close
	}
	// Coalesce with an in-flight fetch when one exists; otherwise become
	// the leader: register the stream and start the origin pump. Either
	// way this request consumes the shared stream progressively.
	key := string(req.key)
	st, ok := p.inflight[key]
	outcome := outcomeCoalesced
	if ok {
		p.mu.Unlock()
		p.coalesced.Inc()
	} else {
		outcome = outcomeMiss
		st = newStream()
		p.inflight[key] = st
		p.mu.Unlock()
		p.misses.Inc()
		if p.tracer == nil {
			ctx = req.context() // relayed to the origin unchanged
		}
		go p.pump(key, st, ctx, sp.Context())
	}
	sp.Attr("outcome", outcome)
	n, err := p.serveStream(c.W, req, st)
	sp.AttrInt("bytes", n)
	if err != nil {
		sp.Attr("error", err.Error())
	}
	sp.End()
	return c.W.Flush() == nil && !req.close
}

// serveStream copies st to one client as the pump fills it, flushing per
// chunk, and returns the body bytes written. An origin error before the
// headers were published becomes a 502; after that the response is
// already under way and can only be cut short, which ends the connection
// (req.close).
func (p *Proxy) serveStream(w *bufio.Writer, req *request, st *stream) (int64, error) {
	st.mu.Lock()
	for !st.hdrReady && !st.done {
		st.cond.Wait()
	}
	if !st.hdrReady {
		err := st.err
		st.mu.Unlock()
		p.originErrors.Inc()
		writeText(w, req, "502 Bad Gateway", "squid: origin fetch failed: "+err.Error())
		return 0, err
	}
	w.Write(appendHead(w.AvailableBuffer(), st.ctype, st.cc, st.size, "MISS"))
	st.mu.Unlock()
	endHead(w, req)
	var off int
	for {
		st.mu.Lock()
		for len(st.buf) == off && !st.done {
			st.cond.Wait()
		}
		// buf is append-only, so the captured slice stays valid unlocked.
		chunk := st.buf[off:]
		done, err := st.done, st.err
		st.mu.Unlock()
		if len(chunk) > 0 {
			n, werr := w.Write(chunk)
			off += n
			p.bytesServed.Add(int64(n))
			if werr == nil && !done {
				werr = w.Flush()
			}
			if werr != nil {
				return int64(off), werr
			}
		}
		if done {
			if err != nil {
				req.close = true
			}
			return int64(off), err
		}
	}
}

// appendHead appends to b the status line and header block of a 200 with
// the origin's Content-Type and Cache-Control, the Content-Length size and
// X-Cache, up to the line endHead writes.
func appendHead(b []byte, ctype, cc string, size int64, xcache string) []byte {
	b = append(b, "HTTP/1.1 200 OK\r\n"...)
	if cc != "" {
		b = append(append(append(b, "Cache-Control: "...), cc...), "\r\n"...)
	}
	b = append(strconv.AppendInt(append(b, "Content-Length: "...), size, 10), "\r\n"...)
	if ctype != "" {
		b = append(append(append(b, "Content-Type: "...), ctype...), "\r\n"...)
	}
	return append(append(append(b, "X-Cache: "...), xcache...), "\r\n"...)
}

// endHead ends a header block, saying Connection: close when the
// connection ends after this response.
func endHead(w *bufio.Writer, req *request) {
	if req.close {
		w.WriteString("Connection: close\r\n")
	}
	w.WriteString("\r\n")
}

// writeText writes a whole plain-text response with status, as
// http.Error did.
func writeText(w *bufio.Writer, req *request, status, text string) {
	w.WriteString("HTTP/1.1 " + status + "\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: ")
	w.Write(strconv.AppendInt(w.AvailableBuffer(), int64(len(text))+1, 10))
	w.WriteString("\r\n")
	endHead(w, req)
	w.WriteString(text)
	w.WriteByte('\n')
}

// Cache outcomes reported as span attributes so the trace analyzer can
// tell a hot cache from a cold-start wave.
const (
	outcomeHit       = "hit"
	outcomeMiss      = "miss"
	outcomeCoalesced = "coalesced"
)

// pump runs the origin fetch for one miss, broadcasting bytes to the
// stream's consumers and committing the result to the cache. Runs in its
// own goroutine so the leader request streams like every waiter.
func (p *Proxy) pump(key string, st *stream, wireCtx, spanCtx trace.Context) {
	err := p.fetchOrigin(key, st, wireCtx, spanCtx)
	p.mu.Lock()
	delete(p.inflight, key)
	if err == nil && cacheable(st.cc) {
		// The stream's buffer becomes the cache body without a copy: the
		// pump is done appending, so it is immutable from here on.
		p.insertLocked(&entry{key: key, body: st.buf, head: appendHead(nil, st.ctype, st.cc, int64(len(st.buf)), "HIT")})
	}
	p.mu.Unlock()
	st.finish(err)
}

// cacheable reports whether the origin's Cache-Control permits caching.
func cacheable(cc string) bool {
	if strings.Contains(cc, "no-cache") || strings.Contains(cc, "no-store") {
		return false
	}
	return true
}

// insertLocked adds ent to the cache, replacing an entry of the same key
// (a no-cache refetch) and evicting LRU entries to fit. Objects larger
// than the whole capacity are not cached.
func (p *Proxy) insertLocked(ent *entry) {
	if el, exists := p.items[ent.key]; exists {
		p.lru.Remove(el)
		delete(p.items, ent.key)
		p.used -= int64(len(el.Value.(*entry).body))
	}
	size := int64(len(ent.body))
	if size > p.capacity {
		return
	}
	for p.used+size > p.capacity && p.lru.Len() > 0 {
		back := p.lru.Back()
		victim := back.Value.(*entry)
		p.lru.Remove(back)
		delete(p.items, victim.key)
		p.used -= int64(len(victim.body))
		p.evictions.Inc()
	}
	p.items[ent.key] = p.lru.PushFront(ent)
	p.used += size
}

// fetchOrigin performs the bounded origin request for one miss,
// broadcasting the body to st as it arrives and propagating the trace
// context so a chained upstream proxy extends the same trace.
//
// Retries are valid only until the first committed 200: once the
// response headers have been published, body bytes may already be on
// the way to clients and a second attempt could not rewind them, so a
// mid-body failure is permanent. So is an answer the client does not
// read (a *wire.ProtocolError) and a 4xx; a 5xx and a transport failure
// are worth another attempt.
func (p *Proxy) fetchOrigin(key string, st *stream, wireCtx, spanCtx trace.Context) error {
	p.sem <- struct{}{}
	defer func() { <-p.sem }()
	var sp *trace.Span
	if p.tracer != nil && spanCtx.Valid() {
		sp = p.tracer.Start(spanCtx, "squid", "origin")
		sp.Attr("origin", p.originHost)
	}
	defer sp.End()
	// Chain under the local span, or relay the client's context when
	// this proxy is untraced in an otherwise traced stack.
	client := p.origin.WithTrace(sp.Context().OrElse(wireCtx))
	// The key's path was unescaped from the client's target: escape it again.
	path, query, _ := strings.Cut(key, "?")
	target := []byte((&url.URL{Path: path, RawQuery: query}).RequestURI())
	var fetched int64
	err := p.retry.Do(func() error {
		corrupt, err := p.fault.CheckPayload("squid_origin", "roundtrip")
		if err != nil {
			return err
		}
		var ctype, cc string
		return client.Get(target, false, math.MaxInt64, func(name, value []byte) {
			if bytes.EqualFold(name, hdrContentType) {
				ctype = string(value)
			} else if bytes.EqualFold(name, hdrCacheControl) {
				cc = string(value)
			}
		}, func(r io.Reader, n int64) error {
			st.publishHeaders(ctype, cc, n)
			buf := bufpool.Get()
			defer bufpool.Put(buf)
			for got := int64(0); got < n; {
				k, rerr := r.Read(*buf)
				if corrupt && got == 0 && k > 0 {
					(*buf)[0] ^= 0xff
				}
				p.bytesFetched.Add(int64(k))
				st.append((*buf)[:k])
				got += int64(k)
				fetched += int64(k)
				if rerr != nil && got < n {
					return retry.Permanent(fmt.Errorf("origin body truncated at %d bytes: %w", got, rerr))
				}
			}
			return nil
		})
	})
	sp.AttrInt("bytes", fetched)
	if err != nil {
		sp.Attr("error", err.Error())
	}
	return err
}
