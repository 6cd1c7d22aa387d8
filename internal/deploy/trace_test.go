package deploy

import (
	"bytes"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lobster/internal/core"
	"lobster/internal/hepsim"
	"lobster/internal/telemetry"
	"lobster/internal/trace"
)

// runSeededAnalysis runs the seeded four-task analysis workload on a stack
// wired to reg and tr (nil: an untraced stack) and returns how many times
// the tasks opened an input through Env.Open and how many of those opens
// carried a tracer and a valid parent.
func runSeededAnalysis(t *testing.T, reg *telemetry.Registry, tr *trace.Tracer) (opens, traced int64) {
	t.Helper()
	st, err := Start(Options{
		Files: 2, LumisPerFile: 2, EventsPerFile: 8,
		Workers: 1, CoresPerWorker: 2,
		ScratchDir: t.TempDir(),
		Telemetry:  reg,
		Tracer:     tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var nOpens, nTraced atomic.Int64
	open := st.Env.Open
	st.Env.Open = func(lfn string, tr *trace.Tracer, ctx trace.Context) (hepsim.RemoteFile, error) {
		nOpens.Add(1)
		if tr != nil && ctx.Valid() {
			nTraced.Add(1)
		}
		return open(lfn, tr, ctx)
	}

	l, err := core.New(core.Config{
		Name: "traced", Kind: core.KindAnalysis, Dataset: st.Dataset.Name,
		EventSize: st.EventSize(),
	}, st.Services)
	if err != nil {
		t.Fatal(err)
	}
	l.SetResultTimeout(time.Minute)
	rep, err := l.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Succeeded() {
		t.Fatalf("report = %+v", rep)
	}
	return nOpens.Load(), nTraced.Load()
}

// TestStackTracedEndToEnd runs a real analysis workload with tracing
// enabled and asserts the full service chain — master dispatch, worker
// run, wrapper segments, chirp stage-out, squid software fetches, and
// xrootd data access — records spans under per-task traces, with no
// span orphaned from its tree.
func TestStackTracedEndToEnd(t *testing.T) {
	reg := telemetry.NewRegistry()
	var buf bytes.Buffer
	log := telemetry.NewEventLog(&buf, nil)
	tr := trace.New(trace.Config{Registry: reg, Log: log})

	opens, traced := runSeededAnalysis(t, reg, tr)
	if opens == 0 || traced != opens {
		t.Errorf("%d of %d Env.Open calls carried the task's tracer and segment", traced, opens)
	}

	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := trace.ReadRecords(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	trees := trace.BuildTrees(recs)
	if len(trees) == 0 {
		t.Fatal("no traces recorded")
	}

	// Count component coverage across all traces; each trace must be
	// internally consistent (single trace ID, no orphans).
	comps := map[string]int{}
	var xrootdOpens int64
	for _, tree := range trees {
		if tree.Orphans != 0 {
			t.Errorf("trace %s: %d orphan spans", tree.TraceID, tree.Orphans)
		}
		var visit func(nd, parent *trace.Node)
		visit = func(nd, parent *trace.Node) {
			if nd.Trace != tree.TraceID {
				t.Fatalf("span %s: trace %s, want %s", nd.Span, nd.Trace, tree.TraceID)
			}
			comps[nd.Comp]++
			// The one Env.Open hands the data-access client the task's
			// wrapper segment: every xrootd open hangs under it.
			if nd.Comp == "xrootd" && nd.Name == "open" {
				xrootdOpens++
				if parent == nil || parent.Comp != "wrapper" {
					t.Errorf("xrootd open span %s is not under a wrapper segment (parent %+v)", nd.Span, parent)
				}
			}
			for _, c := range nd.Children {
				visit(c, nd)
			}
		}
		visit(tree.Root, nil)
	}
	for _, comp := range []string{
		"master", "worker", "wrapper", "chirp", "chirp_server", "squid", "xrootd",
	} {
		if comps[comp] == 0 {
			t.Errorf("no %q spans recorded (coverage: %v)", comp, comps)
		}
	}

	if xrootdOpens != opens {
		t.Errorf("%d xrootd open spans for %d Env.Open calls", xrootdOpens, opens)
	}

	// The worker-scope caches report on the same registry: the first
	// task parses the catalogs and dials, the tasks after it do neither.
	// So does the data server the tasks read from.
	var expo strings.Builder
	if err := reg.WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		`lobster_parrot_catalog_memo_total{outcome="miss"}`,
		`lobster_parrot_catalog_memo_total{outcome="hit"}`,
		`lobster_xrootd_client_conns_total{outcome="dialed"}`,
		`lobster_xrootd_client_conns_total{outcome="reused"}`,
		`lobster_xrootd_server_reads_total`,
		`lobster_xrootd_server_bytes_total`,
		`lobster_xrootd_server_open_conns`,
		`lobster_xrootd_server_stored_bytes`,
	} {
		i := strings.Index(expo.String(), series+" ")
		if i < 0 {
			t.Errorf("series %s not exported", series)
			continue
		}
		line, _, _ := strings.Cut(expo.String()[i:], "\n")
		if strings.HasSuffix(line, " 0") {
			t.Errorf("%s: never counted", line)
		}
	}

	// The stage histograms count what they counted before the span
	// machinery beside them went: each of the four tasks once per
	// processing stage, no merge; they are the only task series.
	for stage, want := range map[string]int{
		"submit": 4, "dispatch": 4, "stage_in": 4, "setup": 4, "execute": 4, "stage_out": 4, "merge": 0,
	} {
		line := fmt.Sprintf("lobster_task_stage_seconds_count{stage=%q} %d\n", stage, want)
		if !strings.Contains(expo.String(), line) {
			t.Errorf("/metrics lacks %q", strings.TrimSpace(line))
		}
	}
	for _, line := range strings.Split(expo.String(), "\n") {
		if strings.HasPrefix(line, "lobster_task_") && !strings.HasPrefix(line, "lobster_task_stage_seconds") {
			t.Errorf("/metrics carries a task series beside the stage histograms: %s", line)
		}
	}
}

// TestStackUntracedRecordsNoSpans: the same workload on a stack given no
// tracer opens its inputs through the same Env.Open, with no tracer and no
// segment to chain a span under.
func TestStackUntracedRecordsNoSpans(t *testing.T) {
	opens, traced := runSeededAnalysis(t, telemetry.NewRegistry(), nil)
	if opens == 0 || traced != 0 {
		t.Errorf("%d of %d Env.Open calls were traced on an untraced stack", traced, opens)
	}
}
