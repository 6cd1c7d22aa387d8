package trace

import (
	"net/http"
	"time"
)

// Transport is an http.RoundTripper that injects a fixed trace context
// into every outgoing request — the idiom for a client (parrot's mounts)
// whose request path offers no per-call hook; frontier's client writes
// the header itself. The request is cloned before mutation, as RoundTrip
// contracts require.
type Transport struct {
	Base http.RoundTripper // nil means http.DefaultTransport
	Ctx  Context
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.Ctx.Valid() {
		req = req.Clone(req.Context())
		t.Ctx.SetHTTP(req.Header)
	}
	base := t.Base
	if base == nil {
		base = http.DefaultTransport
	}
	return base.RoundTrip(req)
}

// WrapClient returns a client whose requests carry ctx in the
// Lobster-Trace header. An invalid ctx returns base unchanged (which
// may be nil); a nil base with a valid ctx wraps a fresh client with a
// 30 s timeout, matching the defaults of the services that accept one.
func WrapClient(base *http.Client, ctx Context) *http.Client {
	if !ctx.Valid() {
		return base
	}
	wrapped := &http.Client{Timeout: 30 * time.Second}
	var inner http.RoundTripper
	if base != nil {
		wrapped.Timeout = base.Timeout
		wrapped.CheckRedirect = base.CheckRedirect
		wrapped.Jar = base.Jar
		inner = base.Transport
	}
	wrapped.Transport = &Transport{Base: inner, Ctx: ctx}
	return wrapped
}
