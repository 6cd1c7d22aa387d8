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
package squid

import (
	"container/list"
	"fmt"
	"io"
	"net/http"
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
	PeerHits      int64 // misses satisfied by a sibling cache instead of the origin
	PeerBytes     int64 // bytes fetched from sibling caches
	ProbesServed  int64 // only-if-cached probes answered for siblings (hit or miss)
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
	// Client performs origin requests; nil means http.DefaultClient with a
	// 30 s timeout.
	Client *http.Client
	// Fault, when non-nil, wraps the origin client's transport so every
	// origin round trip consults the fault plane under component
	// "squid_origin".
	Fault *faultinject.Injector
	// Retry bounds repeated origin fetches on transport failures and 5xx
	// responses. The zero Policy keeps the old single-attempt behaviour.
	// Coalesced waiters share the retried fetch, so a storm of identical
	// requests still costs one origin attempt sequence.
	Retry retry.Policy
	// Peers lists sibling cache base URLs probed on a miss before the
	// origin — the squid cache-hierarchy peering that keeps a site's
	// second cold cache from re-crossing the WAN. Probes carry
	// Cache-Control: only-if-cached, so a sibling answers from its cache
	// or says 504 immediately; it never recurses to the origin or its
	// own peers on a probe, which also makes mutual peering cycle-free.
	Peers []string
}

// Proxy is a caching HTTP proxy in front of a single origin base URL.
// It implements http.Handler: the request path+query is appended to the
// origin base. Safe for concurrent use.
type Proxy struct {
	origin *url.URL
	peers  []*url.URL
	client *http.Client
	retry  retry.Policy
	sem    chan struct{}

	mu       sync.Mutex
	capacity int64
	used     int64
	lru      *list.List               // of *entry, front = most recent
	items    map[string]*list.Element // key → element
	inflight map[string]*stream
	stats    Stats

	tel    proxyTelemetry
	tracer *trace.Tracer
}

// Trace attaches a tracer: requests carrying a Lobster-Trace header get
// a span recording the cache outcome (hit, miss, or coalesced), and
// origin fetches get a child span whose context is forwarded in the
// outgoing header — so chained proxies and the origin server extend the
// same trace. Call before traffic; nil leaves the proxy untraced at
// zero cost.
func (p *Proxy) Trace(tr *trace.Tracer) {
	if tr != nil {
		p.tracer = tr
	}
}

// proxyTelemetry holds the proxy's instruments; the zero value is free.
type proxyTelemetry struct {
	hits         *telemetry.Counter
	misses       *telemetry.Counter
	coalesced    *telemetry.Counter
	originErrors *telemetry.Counter
	evictions    *telemetry.Counter
	bytesServed  *telemetry.Counter
	bytesFetched *telemetry.Counter
	peerHits     *telemetry.Counter
	peerBytes    *telemetry.Counter
	planeIn      *telemetry.Counter // lobster_bytes_total{squid,in}
	planeOut     *telemetry.Counter // lobster_bytes_total{squid,out}
}

// Instrument registers the proxy's metric series on reg. A nil registry
// leaves the proxy uninstrumented at zero cost.
func (p *Proxy) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	p.tel = proxyTelemetry{
		hits: reg.Counter("lobster_squid_hits_total",
			"Requests served from the proxy cache."),
		misses: reg.Counter("lobster_squid_misses_total",
			"Requests that triggered an origin fetch."),
		coalesced: reg.Counter("lobster_squid_coalesced_total",
			"Requests satisfied by piggybacking on an in-flight origin fetch."),
		originErrors: reg.Counter("lobster_squid_origin_errors_total",
			"Origin fetches that failed."),
		evictions: reg.Counter("lobster_squid_evictions_total",
			"Cache entries evicted to make room."),
		bytesServed: reg.Counter("lobster_squid_bytes_served_total",
			"Response bytes served to clients."),
		bytesFetched: reg.Counter("lobster_squid_bytes_fetched_total",
			"Bytes fetched from the origin (misses only)."),
		peerHits: reg.Counter("lobster_squid_peer_hits_total",
			"Misses satisfied by a sibling cache instead of the origin."),
		peerBytes: reg.Counter("lobster_squid_peer_bytes_total",
			"Bytes fetched from sibling caches."),
		planeIn:  reg.Bytes("squid", telemetry.DirIn),
		planeOut: reg.Bytes("squid", telemetry.DirOut),
	}
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
}

type entry struct {
	key  string
	body []byte
	hdr  http.Header
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

	hdr      http.Header
	size     int64 // origin Content-Length, -1 unknown
	hdrReady bool
	buf      []byte
	done     bool
	err      error
}

func newStream() *stream {
	st := &stream{size: -1}
	st.cond.L = &st.mu
	return st
}

// publishHeaders releases consumers to start writing their responses.
func (st *stream) publishHeaders(hdr http.Header, size int64) {
	st.mu.Lock()
	st.hdr = hdr
	st.size = size
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
	u, err := url.Parse(origin)
	if err != nil {
		return nil, fmt.Errorf("squid: bad origin %q: %w", origin, err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("squid: origin %q must be absolute", origin)
	}
	if cfg.CapacityBytes <= 0 {
		cfg.CapacityBytes = 1 << 30
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	if cfg.Fault != nil {
		// Clone so the caller's client is not mutated.
		cl := *client
		cl.Transport = cfg.Fault.Transport("squid_origin", client.Transport)
		client = &cl
	}
	peers := make([]*url.URL, 0, len(cfg.Peers))
	for _, peer := range cfg.Peers {
		pu, err := url.Parse(peer)
		if err != nil || pu.Scheme == "" || pu.Host == "" {
			return nil, fmt.Errorf("squid: bad peer %q: must be an absolute URL", peer)
		}
		peers = append(peers, pu)
	}
	return &Proxy{
		origin:   u,
		peers:    peers,
		client:   client,
		retry:    cfg.Retry,
		sem:      make(chan struct{}, maxOriginConns),
		capacity: cfg.CapacityBytes,
		lru:      list.New(),
		items:    make(map[string]*list.Element),
		inflight: make(map[string]*stream),
	}, nil
}

// SetPeers replaces the sibling cache set. Mutual peering needs it:
// two proxies can only learn each other's URLs after both listeners
// are up. Safe to call while serving; in-flight pumps keep the set
// they started with.
func (p *Proxy) SetPeers(peers ...string) error {
	parsed := make([]*url.URL, 0, len(peers))
	for _, peer := range peers {
		pu, err := url.Parse(peer)
		if err != nil || pu.Scheme == "" || pu.Host == "" {
			return fmt.Errorf("squid: bad peer %q: must be an absolute URL", peer)
		}
		parsed = append(parsed, pu)
	}
	p.mu.Lock()
	p.peers = parsed
	p.mu.Unlock()
	return nil
}

// Stats returns a snapshot of the proxy counters.
func (p *Proxy) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	s.CachedObjects = p.lru.Len()
	s.CachedBytes = p.used
	return s
}

// ServeHTTP implements http.Handler.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "squid: only GET is proxied", http.StatusMethodNotAllowed)
		return
	}
	key := r.URL.Path
	if r.URL.RawQuery != "" {
		key += "?" + r.URL.RawQuery
	}
	ctx, _ := trace.FromHTTP(r.Header)
	var sp *trace.Span
	if p.tracer != nil && ctx.Valid() {
		sp = p.tracer.Start(ctx, "squid", "proxy_get")
		sp.Attr("key", key)
	}

	p.mu.Lock()
	if el, ok := p.items[key]; ok {
		p.lru.MoveToFront(el)
		p.stats.Hits++
		if onlyIfCached(r.Header) {
			p.stats.ProbesServed++
		}
		ent := el.Value.(*entry)
		p.mu.Unlock()
		p.tel.hits.Inc()
		h := w.Header()
		for k, vs := range ent.hdr {
			for _, v := range vs {
				h.Add(k, v)
			}
		}
		h.Set("X-Cache", "HIT")
		sp.Attr("outcome", outcomeHit)
		sp.AttrInt("bytes", int64(len(ent.body)))
		sp.End()
		p.countServed(int64(len(ent.body)))
		w.Write(ent.body)
		return
	}
	// A sibling's only-if-cached probe gets an immediate answer: hit was
	// handled above, so this is a miss, and a probe must never trigger an
	// origin fetch or coalesce onto one — mutual peers probing each other
	// mid-miss would otherwise deadlock waiting on each other's pumps.
	if onlyIfCached(r.Header) {
		p.stats.ProbesServed++
		p.mu.Unlock()
		sp.Attr("outcome", outcomeProbeMiss)
		sp.End()
		w.Header().Set("X-Cache", "MISS")
		http.Error(w, "squid: not cached", http.StatusGatewayTimeout)
		return
	}
	// Coalesce with an in-flight fetch when one exists; otherwise become
	// the leader: register the stream and start the origin pump. Either
	// way this request consumes the shared stream progressively.
	st, ok := p.inflight[key]
	outcome := outcomeCoalesced
	if ok {
		p.stats.Coalesced++
		p.mu.Unlock()
		p.tel.coalesced.Inc()
	} else {
		outcome = outcomeMiss
		st = newStream()
		p.inflight[key] = st
		p.stats.Misses++
		p.mu.Unlock()
		p.tel.misses.Inc()
		go p.pump(key, st, ctx, sp.Context())
	}
	sp.Attr("outcome", outcome)
	n, err := p.serveStream(w, st)
	sp.AttrInt("bytes", n)
	if err != nil {
		sp.Attr("error", err.Error())
	}
	sp.End()
}

// countServed updates the served-bytes accounting.
func (p *Proxy) countServed(n int64) {
	if n <= 0 {
		return
	}
	p.mu.Lock()
	p.stats.BytesServed += n
	p.mu.Unlock()
	p.tel.bytesServed.Add(n)
	p.tel.planeOut.Add(n)
}

// serveStream copies st to one client as the pump fills it, returning
// the bytes written. An origin error before the headers were published
// becomes a 502; after that the response is already under way and can
// only be truncated.
func (p *Proxy) serveStream(w http.ResponseWriter, st *stream) (int64, error) {
	st.mu.Lock()
	for !st.hdrReady && !st.done {
		st.cond.Wait()
	}
	if !st.hdrReady {
		err := st.err
		st.mu.Unlock()
		p.mu.Lock()
		p.stats.OriginErrors++
		p.mu.Unlock()
		p.tel.originErrors.Inc()
		http.Error(w, "squid: origin fetch failed: "+err.Error(), http.StatusBadGateway)
		return 0, err
	}
	hdr, size := st.hdr, st.size
	st.mu.Unlock()

	h := w.Header()
	for k, vs := range hdr {
		for _, v := range vs {
			h.Add(k, v)
		}
	}
	h.Set("X-Cache", "MISS")
	if size >= 0 {
		h.Set("Content-Length", strconv.FormatInt(size, 10))
	}
	flusher, _ := w.(http.Flusher)
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
			p.countServed(int64(n))
			if werr != nil {
				return int64(off), werr
			}
			if !done && flusher != nil {
				flusher.Flush()
			}
		}
		if done {
			return int64(off), err
		}
	}
}

// Cache outcomes reported as span attributes so the trace analyzer can
// tell a hot cache from a cold-start wave.
const (
	outcomeHit       = "hit"
	outcomeMiss      = "miss"
	outcomeCoalesced = "coalesced"
	outcomeProbeMiss = "probe_miss"
)

// onlyIfCached reports whether the request is a sibling cache probe:
// RFC 9111's only-if-cached directive asks for the cached copy or an
// immediate 504, never a forwarded fetch.
func onlyIfCached(h http.Header) bool {
	return strings.Contains(h.Get("Cache-Control"), "only-if-cached")
}

// pump runs the fetch for one miss — sibling caches first, then the
// origin — broadcasting bytes to the stream's consumers and committing
// the result to the cache. Runs in its own goroutine so the leader
// request streams like every waiter. Peer probing happens inside the
// single-flight: however many requests coalesced on this key, the
// cluster sees one probe sweep and at most one origin fetch.
func (p *Proxy) pump(key string, st *stream, wireCtx, spanCtx trace.Context) {
	p.mu.Lock()
	peers := p.peers
	p.mu.Unlock()
	err := errPeerMiss
	if len(peers) > 0 {
		err = p.fetchPeers(peers, key, st, wireCtx, spanCtx)
	}
	if err == errPeerMiss {
		err = p.fetchOrigin(key, st, wireCtx, spanCtx)
	}
	p.mu.Lock()
	delete(p.inflight, key)
	if err == nil && cacheable(st.hdr) {
		// The stream's buffer becomes the cache body without a copy: the
		// pump is done appending, so it is immutable from here on.
		p.insertLocked(&entry{key: key, body: st.buf, hdr: st.hdr})
	}
	p.mu.Unlock()
	st.finish(err)
}

// errPeerMiss means no sibling cache held the object: fall through to
// the origin. Any other fetchPeers error means a peer committed the
// response headers and then failed — the body is already under way to
// clients, so the origin cannot repair it.
var errPeerMiss = fmt.Errorf("squid: no peer holds the object")

// fetchPeers probes the sibling caches in order and streams the body
// from the first one that answers 200.
func (p *Proxy) fetchPeers(peers []*url.URL, key string, st *stream, wireCtx, spanCtx trace.Context) error {
	for _, peer := range peers {
		committed, err := p.fetchPeer(peer, key, st, wireCtx, spanCtx)
		if err == nil {
			return nil
		}
		if committed {
			return err
		}
	}
	return errPeerMiss
}

// fetchPeer probes one sibling. committed reports whether response
// headers were published to the stream (after which failures are
// final). Probe failures before that are soft: the next peer or the
// origin picks up.
func (p *Proxy) fetchPeer(peer *url.URL, key string, st *stream, wireCtx, spanCtx trace.Context) (committed bool, err error) {
	u := *peer
	if i := strings.IndexByte(key, '?'); i >= 0 {
		u.Path = key[:i]
		u.RawQuery = key[i+1:]
	} else {
		u.Path = key
	}
	var sp *trace.Span
	if p.tracer != nil && spanCtx.Valid() {
		sp = p.tracer.Start(spanCtx, "squid", "peer_probe")
		sp.Attr("peer", peer.Host)
	}
	defer sp.End()
	req, err := http.NewRequest(http.MethodGet, u.String(), nil)
	if err != nil {
		return false, err
	}
	req.Header.Set("Cache-Control", "only-if-cached")
	sp.Context().OrElse(wireCtx).SetHTTP(req.Header)
	resp, err := p.client.Do(req)
	if err != nil {
		sp.Attr("error", err.Error())
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		sp.Attr("outcome", "miss")
		return false, errPeerMiss
	}
	hdr := make(http.Header)
	for _, k := range []string{"Content-Type", "Cache-Control"} {
		if v := resp.Header.Get(k); v != "" {
			hdr.Set(k, v)
		}
	}
	st.publishHeaders(hdr, resp.ContentLength)
	var fetched int64
	buf := bufpool.Get()
	defer bufpool.Put(buf)
	for {
		n, rerr := resp.Body.Read(*buf)
		if n > 0 {
			st.append((*buf)[:n])
			fetched += int64(n)
			p.tel.peerBytes.Add(int64(n))
			p.tel.planeIn.Add(int64(n))
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			sp.Attr("error", rerr.Error())
			return true, fmt.Errorf("squid: peer body truncated at %d bytes: %w", fetched, rerr)
		}
	}
	p.mu.Lock()
	p.stats.PeerHits++
	p.stats.PeerBytes += fetched
	p.mu.Unlock()
	p.tel.peerHits.Inc()
	sp.Attr("outcome", "hit")
	sp.AttrInt("bytes", fetched)
	return true, nil
}

// cacheable reports whether the response headers permit caching.
func cacheable(h http.Header) bool {
	cc := h.Get("Cache-Control")
	if strings.Contains(cc, "no-cache") || strings.Contains(cc, "no-store") {
		return false
	}
	return true
}

// insertLocked adds ent to the cache, evicting LRU entries to fit.
// Objects larger than the whole capacity are not cached.
func (p *Proxy) insertLocked(ent *entry) {
	size := int64(len(ent.body))
	if size > p.capacity {
		return
	}
	if _, exists := p.items[ent.key]; exists {
		return
	}
	for p.used+size > p.capacity && p.lru.Len() > 0 {
		back := p.lru.Back()
		victim := back.Value.(*entry)
		p.lru.Remove(back)
		delete(p.items, victim.key)
		p.used -= int64(len(victim.body))
		p.stats.Evictions++
		p.tel.evictions.Inc()
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
// mid-body failure is permanent.
func (p *Proxy) fetchOrigin(key string, st *stream, wireCtx, spanCtx trace.Context) error {
	p.sem <- struct{}{}
	defer func() { <-p.sem }()
	u := *p.origin
	if i := strings.IndexByte(key, '?'); i >= 0 {
		u.Path = key[:i]
		u.RawQuery = key[i+1:]
	} else {
		u.Path = key
	}
	var sp *trace.Span
	if p.tracer != nil && spanCtx.Valid() {
		sp = p.tracer.Start(spanCtx, "squid", "origin")
		sp.Attr("origin", p.origin.Host)
	}
	defer sp.End()
	var fetched int64
	err := p.retry.Do(func() error {
		req, err := http.NewRequest(http.MethodGet, u.String(), nil)
		if err != nil {
			return retry.Permanent(err)
		}
		// Chain under the local span, or relay the client's context when
		// this proxy is untraced in an otherwise traced stack.
		sp.Context().OrElse(wireCtx).SetHTTP(req.Header)
		resp, err := p.client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, resp.Body)
			err := fmt.Errorf("origin status %s for %s", resp.Status, key)
			if resp.StatusCode < 500 {
				// 4xx is the origin's final word; 5xx may be a transient
				// overload worth another attempt.
				return retry.Permanent(err)
			}
			return err
		}
		hdr := make(http.Header)
		for _, k := range []string{"Content-Type", "Cache-Control"} {
			if v := resp.Header.Get(k); v != "" {
				hdr.Set(k, v)
			}
		}
		st.publishHeaders(hdr, resp.ContentLength)
		buf := bufpool.Get()
		defer bufpool.Put(buf)
		for {
			n, rerr := resp.Body.Read(*buf)
			if n > 0 {
				st.append((*buf)[:n])
				fetched += int64(n)
				p.tel.bytesFetched.Add(int64(n))
				p.tel.planeIn.Add(int64(n))
			}
			if rerr == io.EOF {
				return nil
			}
			if rerr != nil {
				return retry.Permanent(fmt.Errorf("origin body truncated at %d bytes: %w", fetched, rerr))
			}
		}
	})
	p.mu.Lock()
	p.stats.BytesFetched += fetched
	p.mu.Unlock()
	sp.AttrInt("bytes", fetched)
	if err != nil {
		sp.Attr("error", err.Error())
	}
	return err
}
