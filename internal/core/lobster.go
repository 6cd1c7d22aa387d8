package core

import (
	"fmt"
	"time"

	"lobster/internal/monitor"
	"lobster/internal/telemetry"
	"lobster/internal/wq"
	"lobster/internal/wrapper"
)

// Lobster drives one workflow to completion. Create with New, run with Run.
type Lobster struct {
	cfg Config
	svc Services

	tasklets []Tasklet
	state    []TaskletState // indexed by tasklet ID, 0..len(tasklets)-1

	pending  [][]int                 // task groups awaiting submission
	attempts map[int]int             // group head tasklet ID → attempts used
	inflight map[int64]*inflightTask // wq task ID → bookkeeping

	unmerged      []outputFile
	mergeSeq      int
	mergesRun     int
	mergedFiles   int
	doneTasklets  int
	failTasklets  int
	tasksRun      int
	tasksFailed   int
	mergingOpen   int // merge tasks in flight
	resultTimeout time.Duration
	epoch         time.Time

	// taskMetrics is the Metrics map the last record carried, reused by
	// the next record whose three values (taskMetricVals) are the same.
	taskMetrics    map[string]float64
	taskMetricVals [3]float64

	tel coreTelemetry
}

// coreTelemetry holds the driver's instruments; the zero value is free.
// Gauges are Set from the (single-threaded) main loop rather than exposed
// as GaugeFuncs because the underlying fields are not lock-protected.
type coreTelemetry struct {
	taskletsRemaining *telemetry.Gauge
	mergeBacklog      *telemetry.Gauge
	inflight          *telemetry.Gauge
	tasksRun          *telemetry.Counter
	tasksFailed       *telemetry.Counter
	merges            *telemetry.Counter
	stages            *telemetry.StageHistograms
}

// instrument registers the driver's metric series on svc.Telemetry. A nil
// registry leaves the driver uninstrumented at zero cost.
func (l *Lobster) instrument() {
	reg := l.svc.Telemetry
	if reg == nil {
		return
	}
	l.tel = coreTelemetry{
		taskletsRemaining: reg.Gauge("lobster_core_tasklets_remaining",
			"Tasklets not yet done or terminally failed."),
		mergeBacklog: reg.Gauge("lobster_core_merge_backlog",
			"Unmerged task outputs plus merge tasks in flight."),
		inflight: reg.Gauge("lobster_core_tasks_inflight",
			"Tasks submitted to the master and not yet resolved."),
		tasksRun: reg.Counter("lobster_core_tasks_total",
			"Processing task attempts that returned."),
		tasksFailed: reg.Counter("lobster_core_task_failures_total",
			"Processing task attempts that returned failure."),
		merges: reg.Counter("lobster_core_merges_total",
			"Merges run: merge tasks that returned, or the one Hadoop merge job."),
		stages: telemetry.NewStageHistograms(reg),
	}
}

// publishGauges pushes the driver's progress gauges. Called from the main
// loop, so reads of the unlocked bookkeeping fields are safe.
func (l *Lobster) publishGauges() {
	l.tel.taskletsRemaining.Set(float64(len(l.tasklets) - l.doneTasklets - l.failTasklets))
	l.tel.mergeBacklog.Set(float64(len(l.unmerged) + l.mergingOpen))
	l.tel.inflight.Set(float64(len(l.inflight)))
}

type inflightTask struct {
	kind    string // "proc" or "merge"
	group   []int
	merge   []outputFile
	output  string
	attempt int
}

// RunReport summarises a completed workflow.
type RunReport struct {
	TaskletsTotal  int
	TaskletsDone   int
	TaskletsFailed int
	TasksRun       int // processing task attempts that returned
	TasksFailed    int // attempts that returned failure
	MergesRun      int
	MergedFiles    int
	Recovered      bool // state was restored from the Lobster DB
	Elapsed        time.Duration
}

// Succeeded reports whether every tasklet completed.
func (r *RunReport) Succeeded() bool {
	return r.TaskletsFailed == 0 && r.TaskletsDone == r.TaskletsTotal
}

// New validates the configuration and prepares a workflow. If the Lobster DB
// already holds state for cfg.Name, the workflow resumes where it left off
// (the paper's automatic crash recovery).
func New(cfg Config, svc Services) (*Lobster, error) {
	full, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := svc.check(&full); err != nil {
		return nil, err
	}
	l := &Lobster{
		cfg:           full,
		svc:           svc,
		attempts:      make(map[int]int),
		inflight:      make(map[int64]*inflightTask),
		resultTimeout: 2 * time.Minute,
		epoch:         time.Now(),
	}
	l.instrument()
	return l, nil
}

// SetResultTimeout adjusts how long Run waits for any single result before
// declaring the workflow stalled.
func (l *Lobster) SetResultTimeout(d time.Duration) { l.resultTimeout = d }

// Run executes the workflow to completion.
func (l *Lobster) Run() (*RunReport, error) {
	start := time.Now()
	recovered, err := l.prepare()
	if err != nil {
		return nil, err
	}
	if err := l.mainLoop(); err != nil {
		return nil, err
	}
	if err := l.finalMerge(); err != nil {
		return nil, err
	}
	rep := &RunReport{
		TaskletsTotal:  len(l.tasklets),
		TaskletsDone:   l.doneTasklets,
		TaskletsFailed: l.failTasklets,
		TasksRun:       l.tasksRun,
		TasksFailed:    l.tasksFailed,
		MergesRun:      l.mergesRun,
		MergedFiles:    l.mergedFiles,
		Recovered:      recovered,
		Elapsed:        time.Since(start),
	}
	return rep, nil
}

// prepare plans tasklets (or recovers them from the DB) and builds the
// initial pending group list.
func (l *Lobster) prepare() (recovered bool, err error) {
	l.tasklets, err = planTasklets(&l.cfg, &l.svc)
	if err != nil {
		return false, err
	}
	l.state = make([]TaskletState, len(l.tasklets))
	for id := range l.state {
		l.state[id] = StatePending
	}
	if l.svc.DB != nil {
		recovered, err = l.loadState()
		if err != nil {
			return false, err
		}
		if !recovered {
			if err := l.persistPlan(); err != nil {
				return false, err
			}
		}
	}
	// Group every tasklet not done.
	todo := make([]int, 0, len(l.tasklets))
	for id, s := range l.state {
		if s == StateDone {
			l.doneTasklets++
		} else {
			todo = append(todo, id)
		}
	}
	l.pending = groupTasklets(&l.cfg, l.tasklets, todo)
	return recovered, nil
}

// mainLoop submits tasks keeping the buffer full and handles results until
// all processing work has resolved and in-flight merges have drained.
func (l *Lobster) mainLoop() error {
	for {
		if err := l.fillBuffer(); err != nil {
			return err
		}
		l.publishGauges()
		if len(l.inflight) == 0 && len(l.pending) == 0 {
			return nil
		}
		r, ok := l.svc.Master.WaitResult(l.resultTimeout)
		if !ok {
			return fmt.Errorf("core: no task results within %v (%d in flight, %d pending); workflow stalled",
				l.resultTimeout, len(l.inflight), len(l.pending))
		}
		if err := l.handleResult(r); err != nil {
			return err
		}
	}
}

// fillBuffer submits pending groups until the task buffer is full.
func (l *Lobster) fillBuffer() error {
	for len(l.inflight) < l.cfg.TaskBuffer && len(l.pending) > 0 {
		group := l.pending[0]
		l.pending = l.pending[1:]
		if err := l.submitGroup(group); err != nil {
			return err
		}
	}
	return nil
}

func (l *Lobster) submitGroup(group []int) error {
	attempt := l.attempts[group[0]]
	task, output, err := buildTask(&l.cfg, l.tasklets, group, attempt)
	if err != nil {
		return err
	}
	task.MaxRetries = 10 // eviction-driven requeues, distinct from task retries
	id, err := l.svc.Master.Submit(task)
	if err != nil {
		return err
	}
	l.inflight[id] = &inflightTask{
		kind: "proc", group: group, output: output, attempt: attempt,
	}
	for _, tid := range group {
		l.state[tid] = StateRunning
	}
	return nil
}

func (l *Lobster) submitMerge(group []outputFile) error {
	task, output, err := buildMergeTask(&l.cfg, group, l.mergeSeq)
	if err != nil {
		return err
	}
	l.mergeSeq++
	task.MaxRetries = 10
	id, err := l.svc.Master.Submit(task)
	if err != nil {
		return err
	}
	l.inflight[id] = &inflightTask{kind: "merge", merge: group, output: output}
	l.mergingOpen++
	return nil
}

// handleResult updates workflow state for one completed task.
func (l *Lobster) handleResult(r *wq.Result) error {
	info, ok := l.inflight[r.TaskID]
	if !ok {
		return nil // stale result from an earlier incarnation
	}
	delete(l.inflight, r.TaskID)
	rep := r.Report
	if info.kind == "proc" && rep == nil && !r.Failed() {
		// Without its report a processing task has no record of what it
		// wrote: retry it like a failure rather than accept 0 output bytes.
		r.ExitCode, r.Error = 1, "processing task returned no wrapper report"
	}
	l.recordMonitor(r, info, rep)

	switch info.kind {
	case "proc":
		l.tasksRun++
		l.tel.tasksRun.Inc()
		if r.Failed() {
			l.tasksFailed++
			l.tel.tasksFailed.Inc()
			return l.handleProcFailure(info)
		}
		return l.handleProcSuccess(info, rep)
	case "merge":
		l.mergingOpen--
		l.mergesRun++
		l.tel.merges.Inc()
		if r.Failed() {
			// Merge failures are terminal for their group: the inputs may be
			// partially consumed. The unmerged outputs remain published.
			return nil
		}
		l.mergedFiles++
		return nil
	}
	return nil
}

func (l *Lobster) handleProcSuccess(info *inflightTask, rep *wrapper.Report) error {
	for _, tid := range info.group {
		l.state[tid] = StateDone
		l.doneTasklets++
	}
	if err := l.persistTaskletStates(info.group, StateDone); err != nil {
		return err
	}
	// Register the output for merging.
	var outBytes int64
	if rep != nil {
		outBytes = int64(rep.Metrics.BytesOut)
	}
	l.unmerged = append(l.unmerged, outputFile{Path: info.output, Bytes: outBytes})

	// Interleaved merging: once enough of the dataset is processed, merge
	// whatever already adds up to a full target-size file.
	if l.cfg.MergeMode == MergeInterleaved && l.processedFraction() >= l.cfg.MergeStartFraction {
		groups, rest := groupOutputsBySize(l.unmerged, l.cfg.MergeTargetBytes, true)
		l.unmerged = rest
		for _, g := range groups {
			if err := l.submitMerge(g); err != nil {
				return err
			}
		}
	}
	return nil
}

func (l *Lobster) handleProcFailure(info *inflightTask) error {
	l.attempts[info.group[0]]++
	if l.attempts[info.group[0]] < l.cfg.MaxTaskRetries {
		l.pending = append(l.pending, info.group)
		for _, tid := range info.group {
			l.state[tid] = StatePending
		}
		return nil
	}
	for _, tid := range info.group {
		l.state[tid] = StateFailed
		l.failTasklets++
	}
	return l.persistTaskletStates(info.group, StateFailed)
}

func (l *Lobster) processedFraction() float64 {
	if len(l.tasklets) == 0 {
		return 0
	}
	return float64(l.doneTasklets) / float64(len(l.tasklets))
}

// finalMerge performs the end-of-run merging for the configured mode.
func (l *Lobster) finalMerge() error {
	switch l.cfg.MergeMode {
	case MergeNone:
		return nil
	case MergeHadoop:
		n, err := hadoopMerge(&l.cfg, l.svc.HDFS, l.unmerged)
		if err != nil {
			return fmt.Errorf("core: hadoop merge: %w", err)
		}
		l.mergesRun++
		l.tel.merges.Inc()
		l.mergedFiles += n
		l.unmerged = nil
		return nil
	case MergeSequential, MergeInterleaved:
		// Merge everything left (interleaved already merged most of it).
		groups, _ := groupOutputsBySize(l.unmerged, l.cfg.MergeTargetBytes, false)
		l.unmerged = nil
		for _, g := range groups {
			if err := l.submitMerge(g); err != nil {
				return err
			}
		}
		for l.mergingOpen > 0 {
			l.publishGauges()
			r, ok := l.svc.Master.WaitResult(l.resultTimeout)
			if !ok {
				return fmt.Errorf("core: merge phase stalled with %d merges in flight", l.mergingOpen)
			}
			if err := l.handleResult(r); err != nil {
				return err
			}
		}
		l.publishGauges()
		return nil
	}
	return nil
}

// recordMonitor converts a task result and its wrapper report (nil if it
// carried none) into a monitoring record, feeding the monitor DB, the
// task-stage histograms, and the structured event log.
func (l *Lobster) recordMonitor(r *wq.Result, info *inflightTask, rep *wrapper.Report) {
	if l.svc.Monitor == nil && l.svc.EventLog == nil && l.tel.stages == nil {
		return
	}
	secs := func(t time.Time) float64 {
		if t.IsZero() {
			return 0
		}
		return t.Sub(l.epoch).Seconds()
	}
	rec := monitor.TaskRecord{
		TaskID:   r.TaskID,
		Kind:     r.Tag,
		Worker:   r.Worker,
		Submit:   secs(r.Stats.Times.Submitted),
		Dispatch: secs(r.Stats.Times.Dispatched),
		Start:    secs(r.Stats.Times.Started),
		Finish:   secs(r.Stats.Times.Finished),
		Return:   secs(r.Stats.Times.Returned),
		ExitCode: r.ExitCode,
		Requeues: r.Requeues,
		// Master→worker transfer overheads as seen from the master.
		WQStageIn:  r.Stats.Times.Started.Sub(r.Stats.Times.Dispatched).Seconds(),
		WQStageOut: r.Stats.Times.Returned.Sub(r.Stats.Times.Finished).Seconds(),
	}
	if rec.WQStageIn < 0 {
		rec.WQStageIn = 0
	}
	if rec.WQStageOut < 0 {
		rec.WQStageOut = 0
	}
	if rep != nil {
		rec.FailedSegment, rec.Error = string(rep.Failed), rep.Error
		rec.SetupTime = rep.SegmentDuration(wrapper.SegSoftware).Seconds()
		rec.StageIn = rep.SegmentDuration(wrapper.SegStageIn).Seconds()
		rec.StageOut = rep.SegmentDuration(wrapper.SegStageOut).Seconds()
		// The synthetic kernel interleaves I/O with computation during the
		// execute segment; attribute execute time to CPU and the explicit
		// staging segments to I/O. The simulation plane refines this split.
		rec.CPUTime = rep.SegmentDuration(wrapper.SegExecute).Seconds()
		rec.IOTime = rec.StageIn + rep.SegmentDuration(wrapper.SegConditions).Seconds()
		// Tasks of one workflow are cut to the same size, so their
		// records share one read-only map until a value differs: a fresh
		// three-key map was 260 of the ~450 bytes a record keeps alive.
		t := &rep.Metrics
		m := [3]float64{t.Events, t.BytesIn, t.BytesOut}
		if l.taskMetrics == nil || m != l.taskMetricVals {
			l.taskMetricVals = m
			l.taskMetrics = map[string]float64{"events": m[0], "bytes_in": m[1], "bytes_out": m[2]}
		}
		rec.Metrics = l.taskMetrics
	}

	// Stage timings arrive after the fact inside the wrapper report.
	if t := l.tel.stages; t != nil {
		pos := func(v float64) float64 {
			if v < 0 {
				return 0
			}
			return v
		}
		if info.kind == "merge" {
			t.Observe(telemetry.StageMerge, pos(rec.Finish-rec.Start))
		} else {
			t.Observe(telemetry.StageSubmit, pos(rec.Dispatch-rec.Submit))
			t.Observe(telemetry.StageDispatch, pos(rec.WQStageIn))
			t.Observe(telemetry.StageStageIn, pos(rec.StageIn))
			t.Observe(telemetry.StageSetup, pos(rec.SetupTime))
			t.Observe(telemetry.StageExecute, pos(rec.CPUTime))
			t.Observe(telemetry.StageStageOut, pos(rec.StageOut+rec.WQStageOut))
		}
	}
	if l.svc.EventLog != nil {
		// Boxing rec for Emit allocates even when the log is off.
		l.svc.EventLog.Emit("task", rec)
	}
	if l.svc.Monitor != nil {
		l.svc.Monitor.Add(rec)
	}
}
