package deploy

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"lobster/internal/core"
	"lobster/internal/telemetry"
	"lobster/internal/trace"
)

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
	for _, tree := range trees {
		if tree.Orphans != 0 {
			t.Errorf("trace %s: %d orphan spans", tree.TraceID, tree.Orphans)
		}
		var visit func(nd *trace.Node)
		visit = func(nd *trace.Node) {
			if nd.Trace != tree.TraceID {
				t.Fatalf("span %s: trace %s, want %s", nd.Span, nd.Trace, tree.TraceID)
			}
			comps[nd.Comp]++
			for _, c := range nd.Children {
				visit(c)
			}
		}
		visit(tree.Root)
	}
	for _, comp := range []string{
		"master", "worker", "wrapper", "chirp", "chirp_server", "squid", "xrootd",
	} {
		if comps[comp] == 0 {
			t.Errorf("no %q spans recorded (coverage: %v)", comp, comps)
		}
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
}
