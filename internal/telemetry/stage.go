package telemetry

// Stage names one phase of the task lifecycle, in execution order. The set
// mirrors the paper's wrapper decomposition plus the master-side phases:
// submit → wq dispatch → sandbox stage-in → software setup → per-segment
// execution → stage-out → merge.
type Stage uint8

// Task lifecycle stages.
const (
	StageSubmit   Stage = iota // queued at the master, awaiting dispatch
	StageDispatch              // wq sandbox/task transmission to the worker
	StageStageIn               // task-level input staging (WAN / chirp)
	StageSetup                 // software environment setup through squid
	StageExecute               // the application segment
	StageStageOut              // output staging to the storage element
	StageMerge                 // merge-task execution
	numStages
)

var stageNames = [numStages]string{
	"submit", "dispatch", "stage_in", "setup", "execute", "stage_out", "merge",
}

// String returns the stage's label value.
func (s Stage) String() string {
	if s < numStages {
		return stageNames[s]
	}
	return "unknown"
}

// StageHistograms holds the per-stage duration histograms
// lobster_task_stage_seconds{stage=...}. Both planes learn a task's stage
// timings after the fact (the real plane from the completed task's wrapper
// report, the simulation from its model), so the one operation is Observe.
// The nil StageHistograms is a complete no-op.
type StageHistograms struct {
	stages [numStages]*Histogram
}

// NewStageHistograms registers the stage histograms on reg. A nil registry
// yields a nil (disabled) value.
func NewStageHistograms(reg *Registry) *StageHistograms {
	if reg == nil {
		return nil
	}
	h := &StageHistograms{}
	hv := reg.HistogramVec("lobster_task_stage_seconds",
		"Task lifecycle stage durations in seconds (both planes).", nil, "stage")
	for s := Stage(0); s < numStages; s++ {
		h.stages[s] = hv.With(s.String())
	}
	return h
}

// Observe records one stage duration.
func (h *StageHistograms) Observe(stage Stage, seconds float64) {
	if h == nil || stage >= numStages {
		return
	}
	h.stages[stage].Observe(seconds)
}
