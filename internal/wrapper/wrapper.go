// Package wrapper implements the instrumented task wrapper that surrounds
// every Lobster task: pre-processing (machine compatibility, software
// delivery, conditions data, input staging), the application itself, and
// post-processing (output staging, statistics).
//
// As in the paper's §5, the wrapper "is broken down into logical segments
// ... Each segment records a timestamp and performs an internal test for
// success or failure, with a unique failure code that can be emitted for
// each segment." The resulting Report, six durations, the metrics summed
// over segments and the failure, is returned with the task and feeds the
// monitoring system: the executor hands it to wq, which carries it in the
// result frame as a typed field (wq.Result.Report), so it is encoded
// once, by the worker's frame encoder, and decoded once, by the master's.
package wrapper

import (
	"fmt"
	"strconv"
	"time"

	"lobster/internal/faultinject"
	"lobster/internal/trace"
)

// Segment names a wrapper phase. The set mirrors the paper's breakdown.
type Segment string

// Wrapper segments in execution order.
const (
	SegEnvInit    Segment = "env_init"
	SegSoftware   Segment = "software_setup"
	SegConditions Segment = "conditions"
	SegStageIn    Segment = "stage_in"
	SegExecute    Segment = "execute"
	SegStageOut   Segment = "stage_out"
)

// segments lists the wrapper segments in execution order. A failure in
// the i-th (from 0) yields exit code 10(i+1), so the monitoring side can
// attribute failures without parsing messages.
var segments = [...]Segment{SegEnvInit, SegSoftware, SegConditions, SegStageIn, SegExecute, SegStageOut}

// Code returns the exit code emitted when this segment fails.
func (s Segment) Code() int {
	if i := s.index(); i >= 0 {
		return 10 * (i + 1)
	}
	return 99
}

// index is s's place in execution order, and so in Report.Durations: -1
// for a name that is not one of the six.
func (s Segment) index() int {
	for i, k := range segments {
		if k == s {
			return i
		}
	}
	return -1
}

// Args is what a task tells its executor: the record core builds for each
// analysis, simulation or merge task and hands to wq as wq.Task.Args. It
// rides the task frame as a typed field, so it is encoded once, by the
// master's frame encoder, and decoded once, by the worker's. A zero field
// is left out of the encoding and the executor reads its default in its
// place.
type Args struct {
	// LFN is the analysis input's logical file name (required there).
	LFN string `json:"lfn,omitempty"`
	// Mode is the analysis access mode: "stream" (the default) or "stage".
	Mode string `json:"mode,omitempty"`
	// Run is the experiment run the conditions lookup is for (default 1).
	Run int `json:"run,omitempty"`
	// SkipEvents and MaxEvents are the analysis task's share of its file,
	// in events; MaxEvents 0 runs to the end of the file.
	SkipEvents int `json:"skip_events,omitempty"`
	MaxEvents  int `json:"max_events,omitempty"`
	// EventSize and Work shape the kernel (defaults: the executors'
	// event size, work factor 1).
	EventSize int `json:"event_size,omitempty"`
	Work      int `json:"work,omitempty"`
	// Events is how many events a simulation task generates (required
	// there), from RNG seed Seed (default 1).
	Events int `json:"events,omitempty"`
	Seed   int `json:"seed,omitempty"`
	// Pileup is the chirp path of a simulation task's pile-up sample.
	Pileup string `json:"pileup,omitempty"`
	// Inputs are the chirp paths a merge task concatenates, in order,
	// into Output.
	Inputs []string `json:"inputs,omitempty"`
	// Output is the chirp path the task's output is staged out to. A task
	// without one leaves output.root in its sandbox.
	Output string `json:"output,omitempty"`
}

// Metrics are one segment's measurements, or their sum over a report. A
// field no step set stays zero and is left out of the encoding.
type Metrics struct {
	BytesFetched    float64 `json:"bytes_fetched,omitempty"`
	BytesIn         float64 `json:"bytes_in,omitempty"`
	BytesOut        float64 `json:"bytes_out,omitempty"`
	CacheHits       float64 `json:"cache_hits,omitempty"`
	CacheMisses     float64 `json:"cache_misses,omitempty"`
	ConditionsBytes float64 `json:"conditions_bytes,omitempty"`
	Events          float64 `json:"events,omitempty"`
}

// attrs records each non-zero metric as an attribute of a sampled sp.
func (m *Metrics) attrs(sp *trace.Span) {
	attr := func(name string, v float64) {
		if v != 0 && sp.Sampled() {
			sp.Attr(name, strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	attr("bytes_fetched", m.BytesFetched)
	attr("bytes_in", m.BytesIn)
	attr("bytes_out", m.BytesOut)
	attr("cache_hits", m.CacheHits)
	attr("cache_misses", m.CacheMisses)
	attr("conditions_bytes", m.ConditionsBytes)
	attr("events", m.Events)
}

// add adds each of o's metrics to m's.
func (m *Metrics) add(o *Metrics) {
	m.BytesFetched += o.BytesFetched
	m.BytesIn += o.BytesIn
	m.BytesOut += o.BytesOut
	m.CacheHits += o.CacheHits
	m.CacheMisses += o.CacheMisses
	m.ConditionsBytes += o.ConditionsBytes
	m.Events += o.Events
}

// Report is the wrapper's record for one task. Durations is indexed by
// segment order, 0 for a segment that did not run; Metrics is the sum
// over segments (each segment's own are attributes of its span when the
// wrapper runs traced); Error is the failing segment's.
type Report struct {
	Durations [6]time.Duration `json:"durations"`
	Metrics   Metrics          `json:"metrics"`
	ExitCode  int              `json:"exit_code,omitempty"` // 0 on success
	Failed    Segment          `json:"failed_segment,omitempty"`
	Error     string           `json:"error,omitempty"`
}

// SegmentDuration returns the duration of segment s (0 if it did not run).
func (r *Report) SegmentDuration(s Segment) time.Duration {
	if i := s.index(); i >= 0 {
		return r.Durations[i]
	}
	return 0
}

// StepContext is passed to each step so it can record metrics and, when
// the wrapper runs traced, chain service clients (chirp, parrot,
// frontier, xrootd) under the segment's span.
type StepContext struct {
	// Metrics are the current segment's, zero when it starts: a step sets
	// what it measures.
	Metrics Metrics

	// Tracer and Trace are the task's tracer and the current segment
	// span's context; both are zero when the wrapper runs untraced.
	Tracer *trace.Tracer
	Trace  trace.Context
}

// Step is one wrapper segment: a name plus the work to perform.
type Step struct {
	Segment Segment
	Run     func(*StepContext) error
}

// Run executes steps in order into rep, recording each one's duration in
// the report's slot for its segment and adding its metrics to the
// report's. The first failure stops execution; its segment, exit code and
// error become the report's.
// A nil Run function records an instantaneous success (segment skipped).
//
// rep and sc are the caller's, so that a caller running task after task
// (an executor's per-slot state) allocates neither: Run zeroes rep before
// the first step, and hands every step sc with its metrics zeroed.
//
// Before each segment runs, inj is consulted under (component "wrapper",
// op = segment name). An injected fault fails the segment with its usual
// exit-code base — from the monitoring side an injected conditions outage
// is indistinguishable from a real one, which is the point. A nil injector
// injects nothing.
//
// With a tracer and a valid parent each segment records a span (component
// "wrapper", named after the segment) chained under parent, and each
// step's context carries the segment span so service clients used inside
// chain under it. Non-zero segment metrics become span attributes. A nil
// tracer or invalid parent records no spans.
func Run(rep *Report, sc *StepContext, inj *faultinject.Injector, tr *trace.Tracer, parent trace.Context, steps ...Step) {
	*rep = Report{}
	*sc = StepContext{Tracer: tr}
	for _, step := range steps {
		sc.Metrics = Metrics{}
		start := time.Now()
		var err error
		var sp *trace.Span
		if tr != nil && parent.Valid() {
			sp = tr.Start(parent, "wrapper", string(step.Segment))
		}
		if err = inj.Check("wrapper", string(step.Segment)); err == nil && step.Run != nil {
			sc.Trace = sp.Context().OrElse(parent)
			err = func() (err error) {
				defer func() {
					if p := recover(); p != nil {
						err = fmt.Errorf("segment panicked: %v", p)
					}
				}()
				return step.Run(sc)
			}()
		}
		if i := step.Segment.index(); i >= 0 {
			rep.Durations[i] = time.Since(start)
		}
		sc.Metrics.attrs(sp)
		rep.Metrics.add(&sc.Metrics)
		if err != nil {
			rep.ExitCode, rep.Failed, rep.Error = step.Segment.Code(), step.Segment, err.Error()
			sp.Attr("error", rep.Error)
			sp.AttrInt("exit_code", int64(rep.ExitCode))
			sp.End()
			return
		}
		sp.End()
	}
}
