package wrapper

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"lobster/internal/trace"
)

var allSegments = []Segment{SegEnvInit, SegSoftware, SegConditions, SegStageIn, SegExecute, SegStageOut}

func TestAllSegmentsSucceed(t *testing.T) {
	rep := Run(nil, nil, trace.Context{},
		Step{Segment: SegEnvInit, Run: func(c *StepContext) error { return nil }},
		Step{Segment: SegSoftware, Run: func(c *StepContext) error {
			c.Metrics.CacheHits = 5
			return nil
		}},
		Step{Segment: SegExecute, Run: func(c *StepContext) error {
			time.Sleep(time.Millisecond)
			c.Metrics.Events = 100
			return nil
		}},
	)
	if rep.ExitCode != 0 || rep.Failed != "" {
		t.Fatalf("report = %+v", rep)
	}
	if len(rep.Segments) != 3 {
		t.Fatalf("segments = %d", len(rep.Segments))
	}
	if rep.SegmentDuration(SegExecute) < time.Millisecond {
		t.Error("execute duration not recorded")
	}
	if got := rep.Totals(); got != (Metrics{CacheHits: 5, Events: 100}) {
		t.Errorf("totals = %+v", got)
	}
	// Each segment starts from zero metrics: execute sees no cache hits.
	if m := rep.Segments[2].Metrics; m != (Metrics{Events: 100}) {
		t.Errorf("execute metrics = %+v", m)
	}
}

func TestFailureStopsAndCodes(t *testing.T) {
	ran := []Segment{}
	rep := Run(nil, nil, trace.Context{},
		Step{Segment: SegEnvInit, Run: func(c *StepContext) error {
			ran = append(ran, SegEnvInit)
			return nil
		}},
		Step{Segment: SegStageIn, Run: func(c *StepContext) error {
			ran = append(ran, SegStageIn)
			return errors.New("xrootd timeout")
		}},
		Step{Segment: SegExecute, Run: func(c *StepContext) error {
			ran = append(ran, SegExecute)
			return nil
		}},
	)
	if len(ran) != 2 {
		t.Fatalf("ran = %v", ran)
	}
	if rep.ExitCode != SegStageIn.Code() || rep.Failed != SegStageIn {
		t.Fatalf("report = %+v", rep)
	}
	if len(rep.Segments) != 2 {
		t.Fatalf("segments = %+v, want the two that ran", rep.Segments)
	}
	last := rep.Segments[len(rep.Segments)-1]
	if last.Error != "xrootd timeout" || last.ExitCode != 40 {
		t.Errorf("failing segment = %+v", last)
	}
}

func TestPanicBecomesFailure(t *testing.T) {
	rep := Run(nil, nil, trace.Context{}, Step{Segment: SegExecute, Run: func(c *StepContext) error {
		panic("application bug")
	}})
	if rep.ExitCode != SegExecute.Code() {
		t.Fatalf("panic not converted: %+v", rep)
	}
}

func TestNilStepSkips(t *testing.T) {
	rep := Run(nil, nil, trace.Context{}, Step{Segment: SegConditions})
	if rep.ExitCode != 0 || len(rep.Segments) != 1 {
		t.Fatalf("report = %+v", rep)
	}
}

// TestSegmentCodeRoundTrip: every segment has its own exit code, and a
// failure in it reaches the master, through the encoded report, under
// that segment and that code.
func TestSegmentCodeRoundTrip(t *testing.T) {
	seen := map[int]Segment{}
	for _, s := range allSegments {
		if prev, dup := seen[s.Code()]; dup || s.Code() == 0 {
			t.Errorf("%s has code %d (shared with %q)", s, s.Code(), prev)
		}
		seen[s.Code()] = s
		rep := Run(nil, nil, trace.Context{}, Step{Segment: s, Run: func(*StepContext) error { return errors.New("down") }})
		got, err := Decode(rep.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if got.Failed != s || got.ExitCode != s.Code() {
			t.Errorf("%s failure decoded as %q / %d", s, got.Failed, got.ExitCode)
		}
	}
	if Segment("unknown").Code() != 99 {
		t.Error("unknown segment code")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rep := Run(nil, nil, trace.Context{},
		Step{Segment: SegSoftware, Run: func(c *StepContext) error {
			c.Metrics.BytesFetched = 150
			return nil
		}},
		Step{Segment: SegExecute, Run: func(c *StepContext) error {
			c.Metrics.Events = 3
			return errors.New("boom")
		}},
	)
	got, err := Decode(rep.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rep) {
		t.Fatalf("decoded = %+v\nwant %+v", got, rep)
	}
	if got.Totals().BytesFetched != 150 {
		t.Errorf("metrics lost in round trip: %+v", got.Totals())
	}
	if _, err := Decode([]byte("not json")); err == nil {
		t.Error("garbage decoded")
	}
}

// TestDecodeMapShapedReport: a report in the shape workers sent before
// segment metrics were typed (a start time per segment, metrics as a map)
// still decodes, every known metric into its field.
func TestDecodeMapShapedReport(t *testing.T) {
	old := `{"segments":[` +
		`{"segment":"software_setup","start":"2026-10-17T17:39:05.123456789Z","duration":300000,"exit_code":0,"metrics":{"bytes_fetched":0,"cache_hits":31,"cache_misses":0}},` +
		`{"segment":"conditions","start":"2026-10-17T17:39:05.2Z","duration":90000,"exit_code":0,"metrics":{"conditions_bytes":4096}},` +
		`{"segment":"execute","start":"2026-10-17T17:39:05.3Z","duration":1000000,"exit_code":0,"metrics":{"bytes_in":4194304,"events":1024}},` +
		`{"segment":"stage_out","start":"2026-10-17T17:39:05.4Z","duration":200000,"exit_code":0,"metrics":{"bytes_out":32768}}` +
		`],"exit_code":0}`
	got, err := Decode([]byte(old))
	if err != nil {
		t.Fatal(err)
	}
	want := Metrics{BytesIn: 4194304, BytesOut: 32768, CacheHits: 31, ConditionsBytes: 4096, Events: 1024}
	if got.Totals() != want || got.SegmentDuration(SegExecute) != time.Millisecond {
		t.Errorf("totals = %+v, execute %v", got.Totals(), got.SegmentDuration(SegExecute))
	}
}

// TestReportAllocs pins what one task's report costs: Run over the six
// segments of a task, the worker's Encode and the master's Decode. Run
// makes the report, its segments and one step context; Encode its bytes;
// Decode the report, its segments, one name per segment and the JSON
// decoder's own state. The map-shaped report with a start time per segment
// took 17, 7 and 18.
func TestReportAllocs(t *testing.T) {
	if poolDropsPuts {
		t.Skip("allocation counts are not meaningful under -race")
	}
	steps := make([]Step, len(allSegments))
	for i, s := range allSegments {
		steps[i] = Step{Segment: s, Run: func(*StepContext) error { return nil }}
	}
	var rep *Report
	if n := testing.AllocsPerRun(100, func() { rep = Run(nil, nil, trace.Context{}, steps...) }); n > 3 {
		t.Errorf("Run: %v allocs, want at most 3", n)
	}
	var data []byte
	if n := testing.AllocsPerRun(100, func() { data = rep.Encode() }); n > 1 {
		t.Errorf("Encode: %v allocs, want at most 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { rep, _ = Decode(data) }); n > 15 {
		t.Errorf("Decode: %v allocs, want at most 15", n)
	}
}
