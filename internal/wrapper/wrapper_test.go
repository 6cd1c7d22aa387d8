package wrapper

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"lobster/internal/trace"
)

var allSegments = []Segment{SegEnvInit, SegSoftware, SegConditions, SegStageIn, SegExecute, SegStageOut}

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

// run is Run into a fresh report, untraced and fault-free.
func run(steps ...Step) *Report {
	rep := new(Report)
	Run(rep, new(StepContext), nil, nil, trace.Context{}, steps...)
	return rep
}

// TestRunReusesCallerRecords runs a failing task and then a succeeding
// one into the same report and step context: the second report carries
// nothing of the first, and its first step starts from zero metrics.
func TestRunReusesCallerRecords(t *testing.T) {
	rep, sc := new(Report), new(StepContext)
	Run(rep, sc, nil, nil, trace.Context{},
		Step{Segment: SegStageIn, Run: func(c *StepContext) error {
			c.Metrics.BytesIn = 7
			return errors.New("down")
		}})
	if rep.Failed != SegStageIn || rep.Metrics.BytesIn != 7 {
		t.Fatalf("first report = %+v", rep)
	}
	Run(rep, sc, nil, nil, trace.Context{},
		Step{Segment: SegExecute, Run: func(c *StepContext) error {
			if c.Metrics != (Metrics{}) {
				t.Errorf("second run's step starts with metrics %+v", c.Metrics)
			}
			c.Metrics.Events = 1
			return nil
		}})
	want := Report{Metrics: Metrics{Events: 1}}
	want.Durations[SegExecute.index()] = rep.Durations[SegExecute.index()]
	if *rep != want {
		t.Errorf("second report = %+v, want %+v", rep, want)
	}
}

func TestAllSegmentsSucceed(t *testing.T) {
	rep := run(
		Step{Segment: SegEnvInit, Run: func(c *StepContext) error { return nil }},
		Step{Segment: SegSoftware, Run: func(c *StepContext) error {
			c.Metrics.CacheHits = 5
			return nil
		}},
		Step{Segment: SegExecute, Run: func(c *StepContext) error {
			// Each segment starts from zero metrics: execute sees no
			// cache hits.
			if c.Metrics != (Metrics{}) {
				t.Errorf("execute starts with metrics %+v", c.Metrics)
			}
			time.Sleep(time.Millisecond)
			c.Metrics.Events = 100
			return nil
		}},
	)
	if rep.ExitCode != 0 || rep.Failed != "" || rep.Error != "" {
		t.Fatalf("report = %+v", rep)
	}
	if rep.SegmentDuration(SegExecute) < time.Millisecond {
		t.Error("execute duration not recorded")
	}
	for _, s := range []Segment{SegConditions, SegStageIn, SegStageOut} {
		if d := rep.SegmentDuration(s); d != 0 {
			t.Errorf("%s did not run but has duration %v", s, d)
		}
	}
	if rep.Metrics != (Metrics{CacheHits: 5, Events: 100}) {
		t.Errorf("metrics = %+v", rep.Metrics)
	}
}

func TestFailureStopsAndCodes(t *testing.T) {
	ran := []Segment{}
	rep := run(
		Step{Segment: SegEnvInit, Run: func(c *StepContext) error {
			ran = append(ran, SegEnvInit)
			return nil
		}},
		Step{Segment: SegStageIn, Run: func(c *StepContext) error {
			ran = append(ran, SegStageIn)
			c.Metrics.BytesIn = 7
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
	if rep.ExitCode != 40 || rep.Failed != SegStageIn || rep.Error != "xrootd timeout" {
		t.Fatalf("report = %+v", rep)
	}
	// The failing segment's measurements count; the one that never ran
	// has no time.
	if rep.Metrics != (Metrics{BytesIn: 7}) || rep.SegmentDuration(SegExecute) != 0 {
		t.Errorf("report = %+v", rep)
	}
}

func TestPanicBecomesFailure(t *testing.T) {
	rep := run(Step{Segment: SegExecute, Run: func(c *StepContext) error {
		panic("application bug")
	}})
	if rep.ExitCode != SegExecute.Code() || !strings.Contains(rep.Error, "application bug") {
		t.Fatalf("panic not converted: %+v", rep)
	}
}

func TestNilStepSkips(t *testing.T) {
	rep := run(Step{Segment: SegConditions})
	if rep.ExitCode != 0 || rep.Failed != "" || rep.Metrics != (Metrics{}) {
		t.Fatalf("report = %+v", rep)
	}
}

// TestSegmentCodeRoundTrip: every segment has its own exit code, and a
// failure in it reaches the master, through the report's encoding, under
// that segment, that code and its error.
func TestSegmentCodeRoundTrip(t *testing.T) {
	seen := map[int]Segment{}
	for _, s := range allSegments {
		if prev, dup := seen[s.Code()]; dup || s.Code() == 0 {
			t.Errorf("%s has code %d (shared with %q)", s, s.Code(), prev)
		}
		seen[s.Code()] = s
		rep := run(Step{Segment: s, Run: func(*StepContext) error { return errors.New("down") }})
		got := roundTrip(t, rep)
		if got.Failed != s || got.ExitCode != s.Code() || got.Error != "down" {
			t.Errorf("%s failure decoded as %q / %d / %q", s, got.Failed, got.ExitCode, got.Error)
		}
	}
	if Segment("unknown").Code() != 99 {
		t.Error("unknown segment code")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rep := run(
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
	if got.Metrics != (Metrics{BytesFetched: 150, Events: 3}) {
		t.Errorf("metrics lost in round trip: %+v", got.Metrics)
	}
	for _, bad := range []string{"not json", `[]`, `{"durations":"x"}`, `{"durations":["soon"]}`, `{"metrics":{"events":"many"}}`} {
		if err := json.Unmarshal([]byte(bad), new(Report)); err == nil {
			t.Errorf("%s decoded", bad)
		}
	}
}

// TestSixSlots: Run records each segment's duration in the slot of its
// place in execution order, whatever the order of the steps, and leaves
// the slots of segments that did not run at 0; the decoder fills the six
// slots in place from the list on the wire. No producer writes more than
// six; a longer list keeps its first six, a shorter one leaves the rest
// 0. A failed segment's name decodes as itself, escaped or not.
func TestSixSlots(t *testing.T) {
	sleep := func(d time.Duration) func(*StepContext) error {
		return func(*StepContext) error { time.Sleep(d); return nil }
	}
	rep := run(
		Step{Segment: SegStageOut, Run: sleep(2 * time.Millisecond)},
		Step{Segment: SegEnvInit, Run: sleep(time.Millisecond)})
	if rep.Durations[5] < 2*time.Millisecond || rep.Durations[0] < time.Millisecond {
		t.Errorf("durations = %v, want stage_out's in slot 5 and env_init's in slot 0", rep.Durations)
	}
	for i := 1; i < 5; i++ {
		if rep.Durations[i] != 0 {
			t.Errorf("slot %d (%s) holds %v, but its segment did not run", i, allSegments[i], rep.Durations[i])
		}
	}
	if got := roundTrip(t, rep); !reflect.DeepEqual(got, rep) {
		t.Errorf("durations decoded as %v", got.Durations)
	}
	if d := rep.SegmentDuration("later"); d != 0 {
		t.Errorf("an unknown segment has duration %v", d)
	}

	var long bytes.Buffer
	long.WriteString(`{"durations":[`)
	for i := 0; i < 12; i++ {
		fmt.Fprintf(&long, "%d,", i+1)
	}
	long.WriteString(`13]}`)
	var got Report
	if err := json.Unmarshal(long.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.Durations != [6]time.Duration{1, 2, 3, 4, 5, 6} {
		t.Errorf("a 13-entry list decoded as %v, want its first six", got.Durations)
	}
	if err := json.Unmarshal([]byte(`{"durations":[9]}`), &got); err != nil || got.Durations != [6]time.Duration{9} {
		t.Errorf("a 1-entry list decoded as %v, %v; want it and five zeros", got.Durations, err)
	}

	for in, want := range map[string]Segment{`"stage_out"`: SegStageOut, `"stage\u005fout"`: SegStageOut, `"custom"`: "custom"} {
		var rep Report
		if err := json.Unmarshal([]byte(`{"failed_segment":`+in+`}`), &rep); err != nil || rep.Failed != want {
			t.Errorf("failed segment %s decoded as %q, %v", in, rep.Failed, err)
		}
	}
}

// bytesPerRun is the heap bytes one call of f allocates, averaged over
// runs calls after one warm-up call, with one P as testing.AllocsPerRun
// runs them: the least of three such averages, so that an allocation of
// the test runner's own in between is not charged to f.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	least := ^uint64(0)
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/uint64(runs))
	}
	return least
}

// TestReportAllocs pins what one task's report costs: Run over the six
// segments of a task, and the master's decode of the report field of a
// result frame, through a decoder it keeps. Run fills a report and a step
// context its caller owns and allocates nothing; until an executor's
// per-slot state owned them, it made the report (144 B) and the step
// context (112 B) for every task. The decode makes the report and nothing
// else: the six durations and the metrics are filled in place. While the
// report held six full segment records, name, exit code, error and
// metrics each, it was a 704 B allocation that Run made once and the
// master's decoder again; before
// that the segments were a slice that Report.UnmarshalJSON presized
// through a nested decode, one fresh string per name (16 allocations);
// and before that the report made the trip as encoded bytes (DESIGN.md
// section 17, eighth turn).
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
	rep, sc := new(Report), new(StepContext)
	task := func() { Run(rep, sc, nil, nil, trace.Context{}, steps...) }
	if n, b := testing.AllocsPerRun(100, task), bytesPerRun(100, task); n > 0 || b > 0 {
		t.Errorf("Run: %v allocs, %d B; want none", n, b)
	}
	data, err := json.Marshal(&struct{ Report *Report }{rep})
	if err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	dec := json.NewDecoder(&stream)
	var frame struct{ Report *Report }
	decode := func() {
		stream.Write(data)
		frame.Report = nil
		if err := dec.Decode(&frame); err != nil {
			t.Fatal(err)
		}
	}
	if n, b := testing.AllocsPerRun(100, decode), bytesPerRun(100, decode); n > 1 || b > 144 {
		t.Errorf("decode: %v allocs, %d B; want 1 of 144 B", n, b)
	}
	if !reflect.DeepEqual(frame.Report, rep) {
		t.Errorf("decoded %+v, want %+v", frame.Report, rep)
	}
}
