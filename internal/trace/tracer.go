package trace

import (
	"strconv"
	"sync"
	"sync/atomic"

	"lobster/internal/stats"
	"lobster/internal/telemetry"
)

// EventType tags trace records in the shared telemetry event log, next
// to the "task" events the monitor replays.
const EventType = "trace"

// Record is the JSONL payload of one completed span. IDs are 16-digit
// hex strings (uint64 does not survive a float64 JSON round trip).
type Record struct {
	Trace  string            `json:"trace"`
	Span   string            `json:"span"`
	Parent string            `json:"parent,omitempty"`
	Comp   string            `json:"comp"` // emitting component: master, foreman, worker, chirp, squid, …
	Name   string            `json:"name"` // operation: task, dispatch, stage_in, get, …
	Start  float64           `json:"start"`
	End    float64           `json:"end"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// Config configures a Tracer.
type Config struct {
	// Registry supplies the clock and receives the tracer's own meters.
	// The tracer shares whatever clock the registry runs on, so traces
	// carry wall time on the real plane and simulated seconds in the
	// simulator.
	Registry *telemetry.Registry
	// Log receives one "trace" event per sampled span. A nil Log
	// disables tracing entirely: New returns nil.
	Log *telemetry.EventLog
	// MaxTracesPerSec bounds head sampling: at most this many new root
	// traces are sampled per clock second (token bucket with a burst of
	// the same size). Zero or negative means sample every trace.
	MaxTracesPerSec float64
	// Seed perturbs the deterministic ID sequence. Sim runs leave it
	// fixed so trace logs are bit-identical across runs.
	Seed uint64
}

// Tracer mints spans and writes sampled ones to the event log. The nil
// Tracer is fully disabled: every method on it, and on the nil spans it
// returns, is a no-op.
type Tracer struct {
	reg   *telemetry.Registry
	log   *telemetry.EventLog
	seed  uint64
	ctr   atomic.Uint64
	limit float64

	mu     sync.Mutex // guards the token bucket
	tokens float64
	last   float64

	spans   *telemetry.Counter // sampled spans recorded
	sampled *telemetry.Counter // root traces admitted by head sampling
	dropped *telemetry.Counter // root traces rejected by head sampling
}

// New builds a tracer. A nil cfg.Log yields a nil (disabled) tracer, so
// callers can write trace.New(trace.Config{Log: maybeNil, …}) and let
// the no-op fast path take over.
func New(cfg Config) *Tracer {
	if cfg.Log == nil {
		return nil
	}
	t := &Tracer{
		reg:   cfg.Registry,
		log:   cfg.Log,
		seed:  cfg.Seed,
		limit: cfg.MaxTracesPerSec,
	}
	if t.limit > 0 {
		t.tokens = t.limit // full bucket at start
		t.last = cfg.Registry.Now()
	}
	t.spans = cfg.Registry.Counter("lobster_trace_spans_total",
		"Sampled trace spans recorded to the event log.")
	t.sampled = cfg.Registry.Counter("lobster_trace_traces_sampled_total",
		"Root traces admitted by head sampling.")
	t.dropped = cfg.Registry.Counter("lobster_trace_traces_dropped_total",
		"Root traces rejected by the head-sampling rate bound.")
	cfg.Registry.SetInfo("trace_sampling", samplingInfo(cfg.MaxTracesPerSec))
	return t
}

func samplingInfo(limit float64) string {
	if limit <= 0 {
		return "all"
	}
	return strconv.FormatFloat(limit, 'g', -1, 64) + "/s"
}

// Enabled reports whether spans will be recorded at all.
func (t *Tracer) Enabled() bool { return t != nil }

// Now reads the tracer's clock (the registry clock); 0 when disabled.
func (t *Tracer) Now() float64 {
	if t == nil {
		return 0
	}
	return t.reg.Now()
}

// newID derives the next span/trace ID from a seeded splitmix64 walk
// over an atomic counter — deterministic under the simulator's
// cooperative scheduling, collision-free in practice, and free of any
// coupling to the simulation RNG.
func (t *Tracer) newID() uint64 {
	x := stats.SplitMix64(t.seed + (t.ctr.Add(1)-1)*stats.SplitMixGamma)
	if x == 0 {
		x = 1
	}
	return x
}

// admit is the head-sampling decision for a new root trace.
func (t *Tracer) admit(now float64) bool {
	if t.limit <= 0 {
		t.sampled.Inc()
		return true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if dt := now - t.last; dt > 0 {
		t.tokens += dt * t.limit
		if t.tokens > t.limit {
			t.tokens = t.limit
		}
	}
	t.last = now
	if t.tokens >= 1 {
		t.tokens--
		t.sampled.Inc()
		return true
	}
	t.dropped.Inc()
	return false
}

// Span is one timed operation in a trace. The nil Span is inert; an
// unsampled span still carries a valid Context (so the 00 sampling flag
// propagates downstream) but records nothing.
type Span struct {
	t      *Tracer
	ctx    Context
	parent uint64
	comp   string
	name   string
	start  float64
	attrs  map[string]string
	ended  bool
}

// Root starts a new trace with a fresh head-sampling decision, stamped
// from the registry clock.
func (t *Tracer) Root(comp, name, baggage string) *Span {
	if t == nil {
		return nil
	}
	return t.RootAt(t.reg.Now(), comp, name, baggage)
}

// RootAt is Root with an explicit timestamp — the simulator's path,
// where span boundaries are computed model values rather than clock
// readings.
func (t *Tracer) RootAt(at float64, comp, name, baggage string) *Span {
	if t == nil {
		return nil
	}
	return &Span{
		t: t,
		ctx: Context{
			TraceID: t.newID(),
			SpanID:  t.newID(),
			Sampled: t.admit(at),
			Baggage: baggage,
		},
		comp:  comp,
		name:  name,
		start: at,
	}
}

// Start opens a child span under parent. An invalid parent context
// degrades to a fresh root — the receiving side of a malformed or
// missing trace token never errors, it just starts over.
func (t *Tracer) Start(parent Context, comp, name string) *Span {
	if t == nil {
		return nil
	}
	return t.StartAt(t.reg.Now(), parent, comp, name)
}

// StartAt is Start with an explicit timestamp.
func (t *Tracer) StartAt(at float64, parent Context, comp, name string) *Span {
	if t == nil {
		return nil
	}
	if !parent.Valid() {
		return t.RootAt(at, comp, name, "")
	}
	return &Span{
		t: t,
		ctx: Context{
			TraceID: parent.TraceID,
			SpanID:  t.newID(),
			Sampled: parent.Sampled,
			Baggage: parent.Baggage,
		},
		parent: parent.SpanID,
		comp:   comp,
		name:   name,
		start:  at,
	}
}

// Context returns the span's propagation context; encode it into the
// outgoing protocol hop. The nil span yields the zero (invalid) Context,
// so downstream components start fresh roots — tracing composes even
// when only part of the stack has it enabled.
func (s *Span) Context() Context {
	if s == nil {
		return Context{}
	}
	return s.ctx
}

// Sampled reports whether this span will be recorded.
func (s *Span) Sampled() bool { return s != nil && s.ctx.Sampled }

// Attr annotates the span. Attributes on unsampled spans are dropped
// without allocating.
func (s *Span) Attr(key, value string) {
	if s == nil || !s.ctx.Sampled {
		return
	}
	if s.attrs == nil {
		s.attrs = make(map[string]string, 4)
	}
	s.attrs[key] = value
}

// AttrInt annotates the span with an integer value.
func (s *Span) AttrInt(key string, value int64) {
	if s == nil || !s.ctx.Sampled {
		return
	}
	s.Attr(key, strconv.FormatInt(value, 10))
}

// End closes the span at the registry clock and records it if sampled.
// Ending twice, or ending a nil span, is a no-op.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.EndAt(s.t.reg.Now())
}

// EndAt closes the span at an explicit timestamp.
func (s *Span) EndAt(at float64) {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	if !s.ctx.Sampled {
		return
	}
	rec := Record{
		Trace: hex16(s.ctx.TraceID),
		Span:  hex16(s.ctx.SpanID),
		Comp:  s.comp,
		Name:  s.name,
		Start: s.start,
		End:   at,
		Attrs: s.attrs,
	}
	if s.parent != 0 {
		rec.Parent = hex16(s.parent)
	}
	s.t.spans.Inc()
	s.t.log.Emit(EventType, &rec)
}

func hex16(v uint64) string {
	var buf [16]byte
	const digits = "0123456789abcdef"
	for i := 15; i >= 0; i-- {
		buf[i] = digits[v&0xf]
		v >>= 4
	}
	return string(buf[:])
}
