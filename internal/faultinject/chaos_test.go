// Chaos suite: the full deploy stack run under scripted fault storms,
// asserting the recovery invariants the paper's environment demands —
// every tasklet reaches exactly-one terminal success, storage-element
// outputs are byte-identical to a fault-free run, retry accounting
// reconciles with the trace log, and no protocol goroutines are
// stranded. Storms are deterministic (seeded plans), so a failing storm
// reproduces from its plan alone: `lobster -fault-plan storm.json`.
package faultinject_test

import (
	"fmt"
	"path/filepath"
	"regexp"
	"runtime"
	"testing"
	"time"

	"lobster/internal/core"
	"lobster/internal/deploy"
	"lobster/internal/faultinject"
	"lobster/internal/retry"
	"lobster/internal/telemetry"
	"lobster/internal/trace"
	"lobster/internal/wq"
)

// chaosRun is one workflow execution, fault-free or stormy.
type chaosRun struct {
	rep     *core.RunReport
	outputs map[string][]byte // storage-element path → content
	stats   wq.MasterStats
	inj     *faultinject.Injector
	spans   []trace.Record
}

// chaosPolicy is the bounded backoff every storm runs under: enough
// attempts to outlast any scripted burst, delays small enough to keep
// the suite fast.
var chaosPolicy = retry.Policy{
	MaxAttempts: 6,
	BaseDelay:   2 * time.Millisecond,
	MaxDelay:    20 * time.Millisecond,
}

// runChaos executes one analysis workflow named name over a small
// deterministic dataset, with plan injected (nil = fault-free), and
// returns the run report plus everything the invariants need. The
// goroutine count is checked after teardown: a storm must not strand
// protocol goroutines.
func runChaos(t *testing.T, name string, plan *faultinject.Plan, merge core.MergeMode, workers int, traced bool) chaosRun {
	t.Helper()
	before := runtime.NumGoroutine()

	inj := faultinject.New(plan)
	reg := telemetry.NewRegistry()
	var tracer *trace.Tracer
	var tracePath string
	var trl *telemetry.EventLog
	if traced {
		tracePath = filepath.Join(t.TempDir(), "spans.jsonl")
		var err error
		trl, err = telemetry.OpenEventLog(tracePath, reg.Now)
		if err != nil {
			t.Fatal(err)
		}
		defer trl.Close()
		tracer = trace.New(trace.Config{Registry: reg, Log: trl})
	}

	st, err := deploy.Start(deploy.Options{
		Files: 3, LumisPerFile: 2, EventsPerFile: 6,
		Workers: workers, CoresPerWorker: 2,
		ScratchDir: t.TempDir(),
		Seed:       11,
		Telemetry:  reg,
		Tracer:     tracer,
		Fault:      inj,
		Retry:      chaosPolicy,
	})
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			st.Close()
		}
	}()

	cfg := core.Config{
		Name: name, Kind: core.KindAnalysis, Dataset: st.Dataset.Name,
		EventSize: st.EventSize(), TaskletsPerTask: 2, MergeMode: merge,
	}
	if merge != core.MergeNone && merge != "" {
		cfg.MergeTargetBytes = 16 << 10
	}
	l, err := core.New(cfg, st.Services)
	if err != nil {
		t.Fatal(err)
	}
	l.SetResultTimeout(time.Minute)
	rep, err := l.Run()
	if err != nil {
		t.Fatalf("run under storm: %v", err)
	}

	outputs := make(map[string][]byte)
	dir := "/store/user/" + name
	infos, err := st.ChirpFS.List(dir)
	if err != nil {
		t.Fatalf("listing %s: %v", dir, err)
	}
	for _, fi := range infos {
		data, err := st.ChirpFS.ReadFile(dir + "/" + fi.Name)
		if err != nil {
			t.Fatalf("reading output %s: %v", fi.Name, err)
		}
		outputs[fi.Name] = data
	}
	stats := st.Services.Master.Stats()
	st.Close()
	closed = true

	var spans []trace.Record
	if traced {
		trl.Close() // flush buffered span records before reading
		spans, err = trace.ReadRecordsPath(tracePath)
		if err != nil {
			t.Fatalf("reading trace log: %v", err)
		}
	}

	// A storm must not strand goroutines: after teardown the count
	// settles back near the pre-run level (slack for parked HTTP
	// keep-alive readers and the test runner's own machinery).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before+8 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before, %d after teardown\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}

	return chaosRun{rep: rep, outputs: outputs, stats: stats, inj: inj, spans: spans}
}

// assertRecovered checks the shared invariants: the workflow succeeded,
// the storm actually fired, and the storage element holds exactly the
// fault-free run's bytes.
func assertRecovered(t *testing.T, baseline, stormy chaosRun) {
	t.Helper()
	if !stormy.rep.Succeeded() {
		t.Fatalf("workflow failed under storm: %+v", stormy.rep)
	}
	if n := stormy.inj.TotalFired(); n == 0 {
		t.Fatal("storm never fired — the plan missed every seam it targets")
	}
	if stormy.rep.TaskletsDone != baseline.rep.TaskletsDone {
		t.Errorf("tasklets done: storm %d, fault-free %d",
			stormy.rep.TaskletsDone, baseline.rep.TaskletsDone)
	}
	base, storm := normalizeOutputs(t, baseline.outputs), normalizeOutputs(t, stormy.outputs)
	if len(storm) != len(base) {
		t.Fatalf("output count: storm %d files, fault-free %d", len(storm), len(base))
	}
	for name, want := range base {
		got, ok := storm[name]
		if !ok {
			t.Errorf("output %s missing under storm", name)
			continue
		}
		if string(got) != string(want) {
			t.Errorf("output %s differs under storm: %d bytes vs %d fault-free",
				name, len(got), len(want))
		}
	}
}

// attemptSuffix is the driver attempt number embedded in task output
// names (name_t3_a1.root). A retried attempt reproduces the same bytes
// under a different attempt number, so outputs are compared with the
// suffix masked.
var attemptSuffix = regexp.MustCompile(`_a\d+\.root$`)

func normalizeOutputs(t *testing.T, outputs map[string][]byte) map[string][]byte {
	t.Helper()
	norm := make(map[string][]byte, len(outputs))
	for name, data := range outputs {
		n := attemptSuffix.ReplaceAllString(name, ".root")
		if _, dup := norm[n]; dup {
			t.Fatalf("two attempts of %s both left outputs on the storage element", n)
		}
		norm[n] = data
	}
	return norm
}

// TestChaosWorkerKillStorm severs worker↔master connections mid-run —
// the paper's evicted worker. The master's requeue accounting must
// re-dispatch every outstanding task; Times stays below the fleet size
// because evicted workers do not reconnect.
func TestChaosWorkerKillStorm(t *testing.T) {
	baseline := runChaos(t, "kills", nil, core.MergeNone, 3, false)
	storm := runChaos(t, "kills", &faultinject.Plan{
		Seed: 1,
		Rules: []faultinject.Rule{
			{Component: "wq_worker", Op: "read", Action: faultinject.ActDrop, After: 3, Times: 2},
		},
	}, core.MergeNone, 3, true)
	assertRecovered(t, baseline, storm)
	if storm.stats.WorkersLost == 0 {
		t.Error("no worker loss recorded — the drops missed the master path")
	}
	if storm.stats.TasksDispatched < baseline.stats.TasksDispatched {
		t.Errorf("storm dispatched %d < fault-free %d — lost tasks were not re-dispatched",
			storm.stats.TasksDispatched, baseline.stats.TasksDispatched)
	}
	reconcileTraces(t, storm)
}

// TestChaosChirpDropStorm cuts and errors storage-element connections
// during stage-out and merging. The chirp Pool must redial and
// replay; PutFile and input cleanup are idempotent, so the merged
// bytes still match the fault-free run. Runs traced so the retry
// accounting can be reconciled against the span log.
func TestChaosChirpDropStorm(t *testing.T) {
	baseline := runChaos(t, "chirpdrop", nil, core.MergeSequential, 2, false)
	storm := runChaos(t, "chirpdrop", &faultinject.Plan{
		Seed: 2,
		Rules: []faultinject.Rule{
			{Component: "chirp_client", Op: "write", Action: faultinject.ActDrop, After: 3, Every: 9, Times: 4},
			{Component: "chirp_client", Op: "read", Action: faultinject.ActError, After: 5, Every: 11, Times: 3},
		},
	}, core.MergeSequential, 2, true)
	assertRecovered(t, baseline, storm)
	if storm.rep.MergedFiles == 0 {
		t.Error("no merged files under storm")
	}
	reconcileTraces(t, storm)
}

// reconcileTraces checks the span log against the master's counters:
// one master dispatch span per dispatch the stats counted, and every
// lost-attributed dispatch is a requeue (the workflow succeeded, so no
// task exhausted its retry budget).
func reconcileTraces(t *testing.T, storm chaosRun) {
	t.Helper()
	dispatches, lost := 0, 0
	for _, r := range storm.spans {
		if r.Comp == "master" && r.Name == "dispatch" {
			dispatches++
			if r.Attrs["lost"] != "" {
				lost++
			}
		}
	}
	if dispatches != storm.stats.TasksDispatched {
		t.Errorf("trace has %d dispatch spans, master counted %d", dispatches, storm.stats.TasksDispatched)
	}
	if lost != storm.stats.Requeues {
		t.Errorf("trace has %d lost dispatches, master counted %d requeues", lost, storm.stats.Requeues)
	}
}

// TestChaosSquidStallStorm turns the squid origin half-dead: round
// trips stall then fail, others just stall. The proxy's origin retry
// (with coalesced waiters) must absorb it without failing a single
// software-delivery or conditions fetch. With the manifest leased at
// worker scope the origin only sees the cold tasks — manifest, the 31
// release objects, conditions — so every rule is aimed at the first
// dozen round trips, where the set-up being failed is a data object's.
func TestChaosSquidStallStorm(t *testing.T) {
	baseline := runChaos(t, "squidstall", nil, core.MergeNone, 2, false)
	storm := runChaos(t, "squidstall", &faultinject.Plan{
		Seed: 3,
		Rules: []faultinject.Rule{
			{Component: "squid_origin", Op: "roundtrip", Action: faultinject.ActStallKill, DelayMS: 10, After: 1, Every: 4, Times: 3},
			{Component: "squid_origin", Op: "roundtrip", Action: faultinject.ActDelay, DelayMS: 5, Every: 3, Times: 5},
		},
	}, core.MergeNone, 2, false)
	assertRecovered(t, baseline, storm)
	if n := storm.inj.Fired("squid_origin", "roundtrip"); n < 4 {
		t.Errorf("squid storm hit the origin transport %d times, want all 3 stall-kills and a delay", n)
	}
}

// TestChaosWrapperSegmentStorm fails wrapper segments outright — the
// whole task attempt dies with the segment's exit code and the driver's
// task-retry budget must absorb it.
func TestChaosWrapperSegmentStorm(t *testing.T) {
	baseline := runChaos(t, "wrapfail", nil, core.MergeNone, 2, false)
	storm := runChaos(t, "wrapfail", &faultinject.Plan{
		Seed: 4,
		Rules: []faultinject.Rule{
			{Component: "wrapper", Op: "stage_in", Action: faultinject.ActError, After: 1, Times: 2},
		},
	}, core.MergeNone, 2, false)
	assertRecovered(t, baseline, storm)
	if storm.rep.TasksFailed == 0 {
		t.Error("injected segment failures never surfaced as failed task attempts")
	}
	if storm.rep.TasksRun <= baseline.rep.TasksRun {
		t.Errorf("storm ran %d attempts ≤ fault-free %d — failed attempts were not retried",
			storm.rep.TasksRun, baseline.rep.TasksRun)
	}
}

// TestChaosPoisonTaskPermanentFailure drives the queue's retry budget
// under a storm that kills every worker connection on its first read —
// the worst case where a task's every dispatch ends in a lost worker.
// The task must terminate as a typed permanent failure after
// MaxRetries+1 attempts instead of cycling through the fleet forever,
// and the queue must come to rest with nothing waiting or in flight.
func TestChaosPoisonTaskPermanentFailure(t *testing.T) {
	inj := faultinject.New(&faultinject.Plan{
		Seed: 6,
		Rules: []faultinject.Rule{
			{Component: "wq_worker", Op: "read", Action: faultinject.ActDrop, Every: 1},
		},
	})
	m, err := wq.NewMaster("127.0.0.1:0", nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	reg := wq.Registry{"noop": func(*wq.ExecContext) error { return nil }}
	const maxRetries = 3
	id, err := m.Submit(&wq.Task{Func: "noop", MaxRetries: maxRetries})
	if err != nil {
		t.Fatal(err)
	}
	var res *wq.Result
	// Each doomed worker can burn at most one dispatch attempt, and
	// burns none when the master sees the connection die before it has
	// dispatched: on a loaded host most workers go that way, so the cap
	// is generous. The loop ends with the first terminal result.
	for attempt := 0; attempt < 200 && res == nil; attempt++ {
		w, err := wq.NewWorker(m.Addr(), fmt.Sprintf("doomed%d", attempt), 1,
			t.TempDir(), reg, nil, nil, inj)
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for m.Stats().WorkersLost <= attempt {
			if time.Now().After(deadline) {
				t.Fatalf("worker %d never died under the drop storm", attempt)
			}
			time.Sleep(2 * time.Millisecond)
		}
		w.Close()
		if r, ok := m.WaitResult(100 * time.Millisecond); ok {
			res = r
		}
	}
	if res == nil {
		t.Fatal("poison task never reached a terminal result")
	}
	if res.TaskID != id || res.ExitCode != -1 || !(res.Permanent && res.Failed()) {
		t.Fatalf("terminal result not a typed permanent failure: %+v", res)
	}
	if res.Requeues != maxRetries+1 {
		t.Errorf("requeues = %d, want %d (MaxRetries+1 attempts)", res.Requeues, maxRetries+1)
	}
	if inj.TotalFired() == 0 {
		t.Fatal("storm never fired")
	}
	if s := m.Stats(); s.TasksWaiting != 0 || s.TasksRunning != 0 {
		t.Errorf("queue not at rest after permanent failure: %+v", s)
	}
}

// TestChaosResultWriteError fails one worker's first result write and
// leaves its connection open — the error verdict, not a drop. The failed
// send must break the connection, so the master sees the worker go, requeues
// the task, and a second worker completes it: exactly one result per task.
// A worker that shrugged the error off would keep its slot and the master
// would wait for that result forever.
func TestChaosResultWriteError(t *testing.T) {
	inj := faultinject.New(&faultinject.Plan{
		Seed: 8,
		Rules: []faultinject.Rule{
			// Write 1 is the hello; write 2 is the first result.
			{Component: "wq_worker", Op: "write", Action: faultinject.ActError, After: 1, Times: 1},
		},
	})
	m, err := wq.NewMaster("127.0.0.1:0", nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	reg := wq.Registry{"noop": func(*wq.ExecContext) error { return nil }}
	const n = 4
	ids := make(map[int64]int)
	for i := 0; i < n; i++ {
		id, err := m.Submit(&wq.Task{Func: "noop"})
		if err != nil {
			t.Fatal(err)
		}
		ids[id] = 0
	}
	faulty, err := wq.NewWorker(m.Addr(), "faulty", 1, t.TempDir(), reg, nil, nil, inj)
	if err != nil {
		t.Fatal(err)
	}
	defer faulty.Close()
	deadline := time.Now().Add(10 * time.Second)
	for inj.TotalFired() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the result write was never failed")
		}
		time.Sleep(time.Millisecond)
	}
	healthy, err := wq.NewWorker(m.Addr(), "healthy", 1, t.TempDir(), reg, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	for _, r := range m.Drain(n, 10*time.Second) {
		if r.Failed() {
			t.Errorf("task %d failed: %+v", r.TaskID, r)
		}
		ids[r.TaskID]++
	}
	for id, got := range ids {
		if got != 1 {
			t.Errorf("task %d: %d results, want exactly 1", id, got)
		}
	}
	if s := m.Stats(); s.Requeues != 1 || s.WorkersLost != 1 || s.TasksRunning != 0 {
		t.Errorf("stats %+v: want the one task the faulty worker held requeued, that worker lost, nothing in flight", s)
	}
}

// TestChaosDeterminism replays one storm twice with the same plan and
// seed: the verdict counts per seam must be identical, which is what
// makes a chaos failure reproducible from its JSON plan alone.
func TestChaosDeterminism(t *testing.T) {
	plan := &faultinject.Plan{
		Seed: 5,
		Rules: []faultinject.Rule{
			{Component: "chirp_client", Op: "write", Action: faultinject.ActError, After: 2, Every: 5, Prob: 0.7},
			{Component: "wrapper", Op: "conditions", Action: faultinject.ActError, After: 1, Times: 1},
		},
	}
	seams := [][2]string{
		{"chirp_client", "write"},
		{"wrapper", "conditions"},
	}
	profile := func(r chaosRun) string {
		s := ""
		for _, k := range seams {
			s += fmt.Sprintf("%s/%s fired %d; ", k[0], k[1], r.inj.Fired(k[0], k[1]))
		}
		return s
	}
	// Deterministic firing per seam requires a deterministic invocation
	// count, which scheduling jitter breaks for unbounded rules — so the
	// invariant asserted here is the weaker, still-load-bearing one:
	// bounded rules (Times-capped) fire identically, and the run
	// converges to the same outputs both times.
	r1 := runChaos(t, "det", plan, core.MergeNone, 1, false)
	r2 := runChaos(t, "det", plan, core.MergeNone, 1, false)
	if !r1.rep.Succeeded() || !r2.rep.Succeeded() {
		t.Fatalf("runs failed: %+v / %+v", r1.rep, r2.rep)
	}
	if f1, f2 := r1.inj.Fired("wrapper", "conditions"), r2.inj.Fired("wrapper", "conditions"); f1 != f2 {
		t.Errorf("bounded rule fired %d vs %d across identical runs (%s | %s)",
			f1, f2, profile(r1), profile(r2))
	}
	o1, o2 := normalizeOutputs(t, r1.outputs), normalizeOutputs(t, r2.outputs)
	if len(o1) != len(o2) {
		t.Fatalf("output sets differ across identical storms: %d vs %d files", len(o1), len(o2))
	}
	for name, want := range o1 {
		if string(o2[name]) != string(want) {
			t.Errorf("output %s differs across identical storms", name)
		}
	}
}
