// Package wrapper implements the instrumented task wrapper that surrounds
// every Lobster task: pre-processing (machine compatibility, software
// delivery, conditions data, input staging), the application itself, and
// post-processing (output staging, statistics).
//
// As in the paper's §5, the wrapper "is broken down into logical segments
// ... Each segment records a timestamp and performs an internal test for
// success or failure, with a unique failure code that can be emitted for
// each segment." The resulting Report is returned with the task and feeds
// the monitoring system.
package wrapper

import (
	"encoding/json"
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

// Exit-code bases per segment: a failure in segment s yields code s.Code(),
// so the monitoring side can attribute failures without parsing messages.
var segmentCodes = map[Segment]int{
	SegEnvInit:    10,
	SegSoftware:   20,
	SegConditions: 30,
	SegStageIn:    40,
	SegExecute:    50,
	SegStageOut:   60,
}

// Code returns the exit code emitted when this segment fails.
func (s Segment) Code() int {
	if c, ok := segmentCodes[s]; ok {
		return c
	}
	return 99
}

// ReportFile names the task output the wrapper report comes home as: the
// executor hands it to the worker in memory, inline in the result.
const ReportFile = "report.json"

// Args is what an analysis or simulation task tells its executor: the
// record core builds for each task and marshals into wq.Task.Args, which
// wq carries without opening. A zero field is left out of the encoding and
// the executor reads its default in its place.
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

// SegmentReport records one segment's outcome.
type SegmentReport struct {
	Segment  Segment       `json:"segment"`
	Duration time.Duration `json:"duration"`
	ExitCode int           `json:"exit_code"` // 0 on success
	Error    string        `json:"error,omitempty"`
	Metrics  Metrics       `json:"metrics"`
}

// Report is the wrapper's full record for one task.
type Report struct {
	Segments []SegmentReport `json:"segments"`
	ExitCode int             `json:"exit_code"`
	Failed   Segment         `json:"failed_segment,omitempty"`
}

// Totals sums each metric across all segments.
func (r *Report) Totals() Metrics {
	var t Metrics
	for i := range r.Segments {
		m := &r.Segments[i].Metrics
		t.BytesFetched += m.BytesFetched
		t.BytesIn += m.BytesIn
		t.BytesOut += m.BytesOut
		t.CacheHits += m.CacheHits
		t.CacheMisses += m.CacheMisses
		t.ConditionsBytes += m.ConditionsBytes
		t.Events += m.Events
	}
	return t
}

// SegmentDuration returns the duration of the named segment (0 if absent).
func (r *Report) SegmentDuration(s Segment) time.Duration {
	for _, sr := range r.Segments {
		if sr.Segment == s {
			return sr.Duration
		}
	}
	return 0
}

// Encode serialises the report to JSON, the form it travels back to the
// master in as the ReportFile output.
func (r *Report) Encode() []byte {
	data, err := json.Marshal(r)
	if err != nil {
		// A report is always plain data; failure to encode is a bug.
		panic(fmt.Sprintf("wrapper: encoding report: %v", err))
	}
	return data
}

// Decode parses an encoded report.
func Decode(data []byte) (*Report, error) {
	// Room for every segment: the decoder fills the slice in place.
	r := Report{Segments: make([]SegmentReport, 0, len(segmentCodes))}
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("wrapper: decoding report: %w", err)
	}
	return &r, nil
}

// StepContext is passed to each step so it can record metrics and, when
// the wrapper runs traced, chain service clients (chirp, parrot,
// frontier, xrootd) under the segment's span.
type StepContext struct {
	// Metrics are the current segment's: a step sets what it measures.
	Metrics *Metrics

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

// Run executes steps in order, recording one SegmentReport each. The first
// failure stops execution; its segment's exit code becomes the report's.
// A nil Run function records an instantaneous success (segment skipped).
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
func Run(inj *faultinject.Injector, tr *trace.Tracer, parent trace.Context, steps ...Step) *Report {
	rep := &Report{Segments: make([]SegmentReport, len(steps))}
	ctx := &StepContext{Tracer: tr}
	for i, step := range steps {
		sr := &rep.Segments[i]
		sr.Segment = step.Segment
		start := time.Now()
		var err error
		var sp *trace.Span
		if tr != nil && parent.Valid() {
			sp = tr.Start(parent, "wrapper", string(step.Segment))
		}
		if err = inj.Check("wrapper", string(step.Segment)); err == nil && step.Run != nil {
			ctx.Metrics, ctx.Trace = &sr.Metrics, sp.Context().OrElse(parent)
			err = func() (err error) {
				defer func() {
					if p := recover(); p != nil {
						err = fmt.Errorf("segment panicked: %v", p)
					}
				}()
				return step.Run(ctx)
			}()
		}
		sr.Duration = time.Since(start)
		sr.Metrics.attrs(sp)
		if err != nil {
			sr.ExitCode, sr.Error = step.Segment.Code(), err.Error()
			rep.Segments = rep.Segments[:i+1]
			rep.ExitCode, rep.Failed = sr.ExitCode, step.Segment
			sp.Attr("error", sr.Error)
			sp.AttrInt("exit_code", int64(sr.ExitCode))
			sp.End()
			return rep
		}
		sp.End()
	}
	return rep
}
