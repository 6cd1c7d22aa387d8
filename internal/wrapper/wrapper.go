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

// Exit-code bases per segment: a failure in segment s yields code Base(s),
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

// SegmentName returns the segment whose failure the exit code encodes, or
// "" for success / unknown codes.
func SegmentName(code int) Segment {
	for s, c := range segmentCodes {
		if c == code {
			return s
		}
	}
	return ""
}

// SegmentReport records one segment's outcome.
type SegmentReport struct {
	Segment  Segment       `json:"segment"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration"`
	ExitCode int           `json:"exit_code"` // 0 on success
	Error    string        `json:"error,omitempty"`
	// Metrics carries segment-specific measurements (bytes moved, cache
	// hits, events processed ...).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is the wrapper's full record for one task.
type Report struct {
	Segments []SegmentReport `json:"segments"`
	ExitCode int             `json:"exit_code"`
	Failed   Segment         `json:"failed_segment,omitempty"`
}

// Metric sums a named metric across all segments.
func (r *Report) Metric(name string) float64 {
	var total float64
	for _, s := range r.Segments {
		total += s.Metrics[name]
	}
	return total
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

// Total returns the summed duration of all segments.
func (r *Report) Total() time.Duration {
	var t time.Duration
	for _, s := range r.Segments {
		t += s.Duration
	}
	return t
}

// Encode serialises the report to JSON (the wrapper writes this into the
// sandbox as an output file so it travels back with the task).
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
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("wrapper: decoding report: %w", err)
	}
	return &r, nil
}

// StepContext is passed to each step so it can record metrics and, when
// the wrapper runs traced, chain service clients (chirp, parrot,
// frontier, xrootd) under the segment's span.
type StepContext struct {
	metrics map[string]float64

	// Tracer and Trace are the task's tracer and the current segment
	// span's context; both are zero when the wrapper runs untraced.
	Tracer *trace.Tracer
	Trace  trace.Context
}

// SetMetric records a metric for the current segment.
func (c *StepContext) SetMetric(name string, v float64) {
	c.metrics[name] = v
}

// AddMetric accumulates into a metric for the current segment.
func (c *StepContext) AddMetric(name string, v float64) {
	c.metrics[name] += v
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
// chain under it. Segment metrics become span attributes. A nil tracer or
// invalid parent records no spans.
func Run(inj *faultinject.Injector, tr *trace.Tracer, parent trace.Context, steps ...Step) *Report {
	rep := &Report{}
	for _, step := range steps {
		sr := SegmentReport{Segment: step.Segment, Start: time.Now(), Metrics: map[string]float64{}}
		var err error
		var sp *trace.Span
		if tr != nil && parent.Valid() {
			sp = tr.Start(parent, "wrapper", string(step.Segment))
		}
		if err = inj.Check("wrapper", string(step.Segment)); err == nil && step.Run != nil {
			ctx := &StepContext{metrics: sr.Metrics, Tracer: tr, Trace: sp.Context().OrElse(parent)}
			err = func() (err error) {
				defer func() {
					if p := recover(); p != nil {
						err = fmt.Errorf("segment panicked: %v", p)
					}
				}()
				return step.Run(ctx)
			}()
		}
		sr.Duration = time.Since(sr.Start)
		if sp.Sampled() {
			for name, v := range sr.Metrics {
				sp.Attr(name, strconv.FormatFloat(v, 'g', -1, 64))
			}
		}
		if err != nil {
			sr.ExitCode = step.Segment.Code()
			sr.Error = err.Error()
			rep.Segments = append(rep.Segments, sr)
			rep.ExitCode = sr.ExitCode
			rep.Failed = step.Segment
			sp.Attr("error", sr.Error)
			sp.AttrInt("exit_code", int64(sr.ExitCode))
			sp.End()
			return rep
		}
		rep.Segments = append(rep.Segments, sr)
		sp.End()
	}
	return rep
}
