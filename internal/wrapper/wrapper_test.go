package wrapper

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"lobster/internal/trace"
)

var allSegments = []Segment{SegEnvInit, SegSoftware, SegConditions, SegStageIn, SegExecute, SegStageOut}

// slotsRun counts rep's slots that hold a segment: the ones that ran.
func slotsRun(rep *Report) int {
	n := 0
	for _, sr := range rep.Segments {
		if sr.Segment != "" {
			n++
		}
	}
	return n
}

// roundTrip sends rep the way a report reaches the master: encoded by the
// worker's frame encoder, decoded by the master's.
func roundTrip(t testing.TB, rep *Report) *Report {
	t.Helper()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var got Report
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	return &got
}

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
	if slotsRun(rep) != 3 {
		t.Fatalf("segments = %d", slotsRun(rep))
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
	if slotsRun(rep) != 2 {
		t.Fatalf("segments = %+v, want the two that ran", rep.Segments)
	}
	last := rep.Segments[1]
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
	if rep.ExitCode != 0 || slotsRun(rep) != 1 {
		t.Fatalf("report = %+v", rep)
	}
}

// TestSegmentCodeRoundTrip: every segment has its own exit code, and a
// failure in it reaches the master, through the report's encoding, under
// that segment and that code.
func TestSegmentCodeRoundTrip(t *testing.T) {
	seen := map[int]Segment{}
	for _, s := range allSegments {
		if prev, dup := seen[s.Code()]; dup || s.Code() == 0 {
			t.Errorf("%s has code %d (shared with %q)", s, s.Code(), prev)
		}
		seen[s.Code()] = s
		rep := Run(nil, nil, trace.Context{}, Step{Segment: s, Run: func(*StepContext) error { return errors.New("down") }})
		got := roundTrip(t, rep)
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
	got := roundTrip(t, rep)
	if !reflect.DeepEqual(got, rep) {
		t.Fatalf("decoded = %+v\nwant %+v", got, rep)
	}
	if got.Totals().BytesFetched != 150 {
		t.Errorf("metrics lost in round trip: %+v", got.Totals())
	}
	for _, bad := range []string{"not json", `[]`, `{"segments":"x"}`, `{"segments":[{"duration":"soon"}]}`} {
		if err := json.Unmarshal([]byte(bad), new(Report)); err == nil {
			t.Errorf("%s decoded", bad)
		}
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
	var got Report
	if err := json.Unmarshal([]byte(old), &got); err != nil {
		t.Fatal(err)
	}
	want := Metrics{BytesIn: 4194304, BytesOut: 32768, CacheHits: 31, ConditionsBytes: 4096, Events: 1024}
	if got.Totals() != want || got.SegmentDuration(SegExecute) != time.Millisecond {
		t.Errorf("totals = %+v, execute %v", got.Totals(), got.SegmentDuration(SegExecute))
	}
}

// TestSixSlots: Run fills the report's slots in step order and leaves the
// rest empty, and the decoder fills them in place from the list on the
// wire. A segment name comes back as its constant, so decoding one
// allocates nothing, and SegmentDuration finds a segment by name in any
// slot. No producer writes more than six entries; a longer list keeps its
// first six and drops the rest.
func TestSixSlots(t *testing.T) {
	steps := []Step{{Segment: SegEnvInit}, {Segment: SegSoftware}, {Segment: SegStageIn}, {Segment: SegExecute}, {Segment: SegStageOut}}
	rep := Run(nil, nil, trace.Context{}, steps...)
	for i, s := range steps {
		if rep.Segments[i].Segment != s.Segment {
			t.Errorf("slot %d holds %q, want %q", i, rep.Segments[i].Segment, s.Segment)
		}
	}
	if rep.Segments[5] != (SegmentReport{}) {
		t.Errorf("the slot no step ran holds %+v", rep.Segments[5])
	}
	if got := roundTrip(t, rep); !reflect.DeepEqual(got, rep) {
		t.Errorf("five segments decoded as %+v", got.Segments)
	}

	var long bytes.Buffer
	long.WriteString(`{"segments":[`)
	for i := 0; i < 12; i++ {
		fmt.Fprintf(&long, `{"segment":%q,"duration":%d},`, allSegments[(11-i)%6], i+1)
	}
	long.WriteString(`{"segment":"later"}]}`)
	var got Report
	if err := json.Unmarshal(long.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	for i, sr := range got.Segments {
		if want := allSegments[(11-i)%6]; sr.Segment != want || sr.Duration != time.Duration(i+1) {
			t.Errorf("slot %d of a 13-entry list: %+v, want %s for %d", i, sr, want, i+1)
		}
	}
	if d := got.SegmentDuration(SegEnvInit); d != 6 {
		t.Errorf("env_init found in slot 5 with duration %d, want 6", d)
	}

	var s Segment
	known := []byte(`"stage_out"`)
	if n := testing.AllocsPerRun(100, func() {
		if err := s.UnmarshalJSON(known); err != nil {
			t.Fatal(err)
		}
	}); n != 0 || s != SegStageOut {
		t.Errorf("a known name decoded as %q in %v allocs, want its constant in 0", s, n)
	}
	if err := json.Unmarshal([]byte(`"stage\u005fout"`), &s); err != nil || s != SegStageOut {
		t.Errorf("an escaped name decoded as %q, %v", s, err)
	}
	if err := json.Unmarshal([]byte(`"custom"`), &s); err != nil || s != "custom" {
		t.Errorf("an unknown name decoded as %q, %v", s, err)
	}
}

// TestReportAllocs pins what one task's report costs: Run over the six
// segments of a task, and the master's decode of the report field of a
// result frame, through a decoder it keeps. Run makes the report, whose
// six slots are part of it, and one step context. The decode makes the
// report and nothing else: the slots are filled in place and each name
// comes back as its constant. It was 16 allocations while the segments
// were a slice that Report.UnmarshalJSON presized through a nested
// decode, one fresh string per name; before that the report made the trip
// as encoded bytes (DESIGN.md section 17, eighth turn), an Encode of 1
// allocation on the worker, then a base64 copy and a Decode of 15 on the
// master.
func TestReportAllocs(t *testing.T) {
	if poolDropsPuts {
		t.Skip("allocation counts are not meaningful under -race")
	}
	steps := make([]Step, len(allSegments))
	for i, s := range allSegments {
		steps[i] = Step{Segment: s, Run: func(c *StepContext) error {
			c.Metrics.Events = 1
			return nil
		}}
	}
	var rep *Report
	if n := testing.AllocsPerRun(100, func() { rep = Run(nil, nil, trace.Context{}, steps...) }); n > 2 {
		t.Errorf("Run: %v allocs, want at most 2", n)
	}
	data, err := json.Marshal(&struct{ Report *Report }{rep})
	if err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	dec := json.NewDecoder(&stream)
	var frame struct{ Report *Report }
	if n := testing.AllocsPerRun(100, func() {
		stream.Write(data)
		frame.Report = nil
		if err := dec.Decode(&frame); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("decode: %v allocs, want 1", n)
	}
	if !reflect.DeepEqual(frame.Report, rep) {
		t.Errorf("decoded %+v, want %+v", frame.Report, rep)
	}
}
