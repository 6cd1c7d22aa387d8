package monitor

import (
	"math"
	"testing"
)

// mkRecord builds a simple successful record running [start, start+dur).
func mkRecord(id int64, start, dur, cpu float64) TaskRecord {
	return TaskRecord{
		TaskID: id, Kind: "analysis", Worker: "w",
		Submit: start - 2, Dispatch: start - 1, Start: start,
		Finish: start + dur, Return: start + dur + 1,
		CPUTime: cpu, IOTime: dur - cpu,
	}
}

func TestBreakdownFractions(t *testing.T) {
	m := New()
	// Success: 60 cpu + 40 io over 100s wall.
	m.Add(mkRecord(1, 0, 100, 60))
	// Failure consuming 50s wall.
	m.Add(TaskRecord{TaskID: 2, Start: 0, Finish: 50, ExitCode: 40})
	// WQ transfer overheads on a third task.
	r := mkRecord(3, 0, 100, 100)
	r.WQStageIn, r.WQStageOut = 5, 5
	m.Add(r)

	rows := m.Breakdown()
	byPhase := map[string]BreakdownRow{}
	var fracSum float64
	for _, row := range rows {
		byPhase[row.Phase] = row
		fracSum += row.Fraction
	}
	if math.Abs(fracSum-1) > 1e-9 {
		t.Errorf("fractions sum to %g", fracSum)
	}
	if math.Abs(byPhase["Task CPU Time"].Hours*3600-160) > 1e-9 {
		t.Errorf("cpu hours = %g", byPhase["Task CPU Time"].Hours)
	}
	if math.Abs(byPhase["Task Failed"].Hours*3600-50) > 1e-9 {
		t.Errorf("failed hours = %g", byPhase["Task Failed"].Hours)
	}
	if math.Abs(byPhase["WQ Stage In"].Hours*3600-5) > 1e-9 {
		t.Errorf("wq stage in = %g", byPhase["WQ Stage In"].Hours)
	}
}

func TestBreakdownIncludesLostTime(t *testing.T) {
	m := New()
	r := mkRecord(1, 0, 100, 100)
	r.LostTime = 300 // evicted twice before completing
	m.Add(r)
	rows := m.Breakdown()
	for _, row := range rows {
		if row.Phase == "Task Failed" && math.Abs(row.Hours*3600-300) > 1e-9 {
			t.Errorf("lost time not in failed phase: %g", row.Hours*3600)
		}
	}
}

func TestTimelineConcurrencyAndCompletions(t *testing.T) {
	m := New()
	// Two tasks overlapping in [0,100): one spans the whole window, one
	// only the first half.
	m.Add(mkRecord(1, 0, 100, 100))
	m.Add(mkRecord(2, 0, 50, 25))
	// One failure finishing at t=75.
	m.Add(TaskRecord{TaskID: 3, Start: 50, Finish: 75, ExitCode: 50})

	tl, err := m.Timeline(0, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	if tl.Bins != 10 {
		t.Fatalf("bins = %d", tl.Bins)
	}
	// Bin 0: both long tasks running → concurrency 2.
	if math.Abs(tl.Running[0]-2) > 1e-9 {
		t.Errorf("running[0] = %g", tl.Running[0])
	}
	// Bin 6 (t=60..70): task 1 and failing task 3 → 2.
	if math.Abs(tl.Running[6]-2) > 1e-9 {
		t.Errorf("running[6] = %g", tl.Running[6])
	}
	// Completions: task 2 at t=50 → bin 5; failure at t=75 → bin 7.
	if tl.Completed[5] != 1 || tl.FailedN[7] != 1 {
		t.Errorf("completions: %v, failures: %v", tl.Completed, tl.FailedN)
	}
	// Task 1 also completes: finish=100 clamps into the last bin.
	if tl.Completed[9] != 1 {
		t.Errorf("final-bin completion missing: %v", tl.Completed)
	}
	// Efficiency in bin 0: task1 cpu 1.0, task2 cpu 0.5 → (10+5)/20 = 0.75.
	if math.Abs(tl.Eff[0]-0.75) > 1e-9 {
		t.Errorf("eff[0] = %g", tl.Eff[0])
	}
	if tl.BinTime(3) != 30 {
		t.Errorf("BinTime(3) = %g", tl.BinTime(3))
	}
}

func TestTimelineValidation(t *testing.T) {
	m := New()
	if _, err := m.Timeline(0, 0, 10); err == nil {
		t.Error("empty window accepted")
	}
	if _, err := m.Timeline(0, 10, 0); err == nil {
		t.Error("zero bin width accepted")
	}
}

func TestFailureCodes(t *testing.T) {
	m := New()
	m.Add(TaskRecord{TaskID: 1, Start: 0, Finish: 4, ExitCode: 20})
	m.Add(TaskRecord{TaskID: 2, Start: 0, Finish: 7, ExitCode: 50})
	m.Add(TaskRecord{TaskID: 3, Start: 0, Finish: 8, ExitCode: 20})
	m.Add(mkRecord(4, 0, 9, 9)) // success: excluded
	codes, err := m.FailureCodes(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(codes[0]) != 1 || codes[0][0] != 20 {
		t.Errorf("bin 0 codes = %v", codes[0])
	}
	if len(codes[1]) != 2 || codes[1][0] != 20 || codes[1][1] != 50 {
		t.Errorf("bin 1 codes = %v", codes[1])
	}
}

func TestDiagnoseRules(t *testing.T) {
	m := New()
	// Healthy baseline.
	m.Add(mkRecord(1, 0, 100, 90))
	if advice := m.Diagnose(Thresholds{}); len(advice) != 0 {
		t.Errorf("healthy run produced advice: %+v", advice)
	}

	// Lost runtime → task-too-large.
	m2 := New()
	r := mkRecord(1, 0, 100, 100)
	r.LostTime = 50
	m2.Add(r)
	assertAdvice(t, m2, AdviceTaskTooLarge)

	// Heavy WQ stage-in → need-foremen.
	m3 := New()
	r = mkRecord(1, 0, 100, 100)
	r.WQStageIn = 20
	m3.Add(r)
	assertAdvice(t, m3, AdviceNeedForemen)

	// Long setup → squid-overloaded.
	m4 := New()
	r = mkRecord(1, 0, 100, 50)
	r.SetupTime = 40
	m4.Add(r)
	assertAdvice(t, m4, AdviceSquidOverloaded)

	// Long stage-out → chirp-overloaded.
	m5 := New()
	r = mkRecord(1, 0, 100, 50)
	r.StageOut = 30
	m5.Add(r)
	assertAdvice(t, m5, AdviceChirpOverloaded)
}

func assertAdvice(t *testing.T, m *Monitor, code string) {
	t.Helper()
	for _, a := range m.Diagnose(Thresholds{}) {
		if a.Code == code {
			if a.Value <= a.Threshold {
				t.Errorf("%s fired with value %g <= threshold %g", code, a.Value, a.Threshold)
			}
			if a.Message == "" {
				t.Errorf("%s has no message", code)
			}
			return
		}
	}
	t.Errorf("advice %s not produced", code)
}

func TestDiagnoseEmptyMonitor(t *testing.T) {
	if advice := New().Diagnose(Thresholds{}); len(advice) != 0 {
		t.Errorf("empty monitor produced advice: %+v", advice)
	}
}

// TestAddNeverMovesRecords holds the store's growth rule: a record stays
// where Add put it however many follow, Records and Each see them all in
// arrival order across block boundaries, a monitor of a few records
// allocates a block of a few, and a whole full-size block of Adds
// allocates that block and nothing per record.
func TestAddNeverMovesRecords(t *testing.T) {
	off := -1
	for i := range 3 * maxBlock {
		b, o := blockOf(i)
		if o != off+1 {
			if o != 0 {
				t.Fatalf("record %d at block %d offset %d, after offset %d", i, b, o, off)
			}
			if want := min(firstBlock<<(b-1), maxBlock); b > 0 && off+1 != want {
				t.Fatalf("block %d held %d records, want %d", b-1, off+1, want)
			}
		}
		off = o
	}

	m := New()
	m.Add(mkRecord(0, 0, 1, 1))
	var first *TaskRecord
	m.Each(func(r *TaskRecord) {
		if first == nil {
			first = r
		}
	})
	if got := cap(m.blocks[0]); got != firstBlock {
		t.Errorf("a one-record monitor holds a block of %d, want %d", got, firstBlock)
	}
	const n = smallRecs + 2*maxBlock + 5
	for i := int64(1); i < n; i++ {
		m.Add(mkRecord(i, float64(i), 1, 1))
	}
	seen := 0
	m.Each(func(r *TaskRecord) {
		if seen == 0 && r != first {
			t.Error("record 0 moved when the store grew")
		}
		if r.TaskID != int64(seen) {
			t.Errorf("record %d is task %d", seen, r.TaskID)
		}
		seen++
	})
	recs := m.Records()
	if seen != n || len(recs) != n || recs[n-1].TaskID != n-1 {
		t.Fatalf("Each saw %d and Records holds %d of %d records", seen, len(recs), n)
	}
	if New().Records() != nil {
		t.Error("an empty monitor's Records is not nil")
	}
	// Fill the current block, then time one whole block of Adds.
	for _, o := blockOf(m.n); o != 0; _, o = blockOf(m.n) {
		m.Add(TaskRecord{})
	}
	allocs := testing.AllocsPerRun(1, func() {
		for range maxBlock {
			m.Add(TaskRecord{})
		}
	})
	if allocs > 2 {
		t.Errorf("%d Adds made %v allocations, want the block (and the block list's growth)", maxBlock, allocs)
	}
}
