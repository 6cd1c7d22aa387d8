package wrapper

import (
	"errors"
	"testing"
	"time"

	"lobster/internal/trace"
)

func TestAllSegmentsSucceed(t *testing.T) {
	rep := Run(nil, nil, trace.Context{},
		Step{Segment: SegEnvInit, Run: func(c *StepContext) error { return nil }},
		Step{Segment: SegSoftware, Run: func(c *StepContext) error {
			c.SetMetric("cache_hits", 5)
			return nil
		}},
		Step{Segment: SegExecute, Run: func(c *StepContext) error {
			time.Sleep(time.Millisecond)
			c.SetMetric("events", 100)
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
	if rep.Metric("events") != 100 || rep.Metric("cache_hits") != 5 {
		t.Error("metrics lost")
	}
	if rep.Total() < time.Millisecond {
		t.Error("total duration wrong")
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

func TestSegmentCodeRoundTrip(t *testing.T) {
	for _, s := range []Segment{SegEnvInit, SegSoftware, SegConditions, SegStageIn, SegExecute, SegStageOut} {
		if SegmentName(s.Code()) != s {
			t.Errorf("code round trip broken for %s", s)
		}
	}
	if Segment("unknown").Code() != 99 {
		t.Error("unknown segment code")
	}
	if SegmentName(0) != "" || SegmentName(12345) != "" {
		t.Error("bogus code resolved")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rep := Run(nil, nil, trace.Context{},
		Step{Segment: SegSoftware, Run: func(c *StepContext) error {
			c.AddMetric("bytes", 100)
			c.AddMetric("bytes", 50)
			return nil
		}},
		Step{Segment: SegExecute, Run: func(c *StepContext) error {
			return errors.New("boom")
		}},
	)
	got, err := Decode(rep.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.ExitCode != rep.ExitCode || got.Failed != rep.Failed {
		t.Fatalf("decoded = %+v", got)
	}
	if got.Metric("bytes") != 150 {
		t.Errorf("metrics lost in round trip: %g", got.Metric("bytes"))
	}
	if _, err := Decode([]byte("not json")); err == nil {
		t.Error("garbage decoded")
	}
}
