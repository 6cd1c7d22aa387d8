// Package trace is Lobster's distributed-tracing layer: a propagated
// trace context (trace ID, parent span ID, sampled flag, baggage) that
// flows across every component boundary — wq master → worker
// dispatch, worker → chirp stage-in/out, worker → squid/CVMFS software
// fetch, worker → xrootd reads, and merge jobs — plus span recording
// into the shared telemetry event log and offline analysis (span trees,
// critical path, per-segment breakdown, offender attribution).
//
// # Wire format
//
// A context travels as a single token with no whitespace, so it fits in
// HTTP headers, the wq task JSON, and the space-delimited chirp line
// protocol without escaping:
//
//	lt1-<trace id:16 hex>-<span id:16 hex>-<01|00>[-<baggage>]
//
// "lt1" versions the format; 01/00 is the head-sampling decision made at
// the root and inherited by every downstream hop. Parsing is tolerant by
// design: any malformed token decodes to the zero Context and the
// receiver starts a fresh root — propagation bugs degrade tracing, they
// never fail a task.
//
// # Zero cost when disabled
//
// Like the telemetry instruments, the nil *Tracer and nil *Span are
// complete no-ops whose methods compile to a single predictable branch
// (see BenchmarkDisabledTracer), so components instrument
// unconditionally.
package trace

import (
	"strconv"
	"strings"
)

// Header is the HTTP header carrying a trace context across the squid
// proxy, CVMFS/parrot fetches, and frontier lookups.
const Header = "Lobster-Trace"

// prefix versions the wire encoding.
const prefix = "lt1"

// Context identifies one position in a distributed trace. The zero
// Context is invalid and means "no incoming trace".
type Context struct {
	TraceID uint64 // all spans of one task share this; 0 ⇒ invalid
	SpanID  uint64 // the sender's span, i.e. the receiver's parent
	Sampled bool   // head-sampling decision, made once at the root
	Baggage string // opaque task annotation (category, workflow)
}

// Valid reports whether c carries a usable trace identity.
func (c Context) Valid() bool { return c.TraceID != 0 }

// OrElse returns c when valid and alt otherwise — the fallback pattern
// of partially-instrumented stacks: chain under the local span when
// tracing is on, else relay the upstream context unchanged.
func (c Context) OrElse(alt Context) Context {
	if c.Valid() {
		return c
	}
	return alt
}

// Encode renders c in wire format. The zero Context encodes to "" so
// callers can assign it to a field or header unconditionally. Whitespace
// in baggage is replaced with '_' to keep the token protocol-safe.
func (c Context) Encode() string {
	if !c.Valid() {
		return ""
	}
	var b strings.Builder
	b.Grow(len(prefix) + 1 + 16 + 1 + 16 + 1 + 2 + 1 + len(c.Baggage))
	b.WriteString(prefix)
	b.WriteByte('-')
	writeHex16(&b, c.TraceID)
	b.WriteByte('-')
	writeHex16(&b, c.SpanID)
	if c.Sampled {
		b.WriteString("-01")
	} else {
		b.WriteString("-00")
	}
	if c.Baggage != "" {
		b.WriteByte('-')
		for _, r := range c.Baggage {
			if r == ' ' || r == '\t' || r == '\n' || r == '\r' {
				b.WriteByte('_')
			} else {
				b.WriteRune(r)
			}
		}
	}
	return b.String()
}

func writeHex16(b *strings.Builder, v uint64) {
	var buf [16]byte
	const digits = "0123456789abcdef"
	for i := 15; i >= 0; i-- {
		buf[i] = digits[v&0xf]
		v >>= 4
	}
	b.Write(buf[:])
}

// Parse decodes a wire token. It is deliberately forgiving: anything
// that does not parse — wrong version, short fields, bad hex, zero
// trace ID — returns (Context{}, false) and the caller proceeds with a
// fresh root. It never returns an error, because a trace header must
// never be able to fail a task.
func Parse(s string) (Context, bool) {
	if s == "" {
		return Context{}, false
	}
	// lt1 - trace - span - flags [- baggage…]
	parts := strings.SplitN(s, "-", 5)
	if len(parts) < 4 || parts[0] != prefix {
		return Context{}, false
	}
	if len(parts[1]) != 16 || len(parts[2]) != 16 || len(parts[3]) != 2 {
		return Context{}, false
	}
	traceID, err := strconv.ParseUint(parts[1], 16, 64)
	if err != nil || traceID == 0 {
		return Context{}, false
	}
	spanID, err := strconv.ParseUint(parts[2], 16, 64)
	if err != nil {
		return Context{}, false
	}
	var sampled bool
	switch parts[3] {
	case "01":
		sampled = true
	case "00":
		sampled = false
	default:
		return Context{}, false
	}
	c := Context{TraceID: traceID, SpanID: spanID, Sampled: sampled}
	if len(parts) == 5 {
		c.Baggage = parts[4]
	}
	return c, true
}
