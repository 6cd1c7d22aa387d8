package deploy

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"lobster/internal/core"
	"lobster/internal/health"
	"lobster/internal/telemetry"
)

// TestStatsAgreeWithMetrics: after one seeded workflow on a stack with a
// registry, every field of the master's, the chirp server's and the
// squid's Stats that has a series reads on the /metrics page what Stats
// reads, and every family named *_total is a counter. A component counts
// each event once, so the two can only disagree if a reader computes
// something else.
func TestStatsAgreeWithMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	st, err := Start(Options{
		Files: 4, LumisPerFile: 4, EventsPerFile: 16,
		Workers: 1, CoresPerWorker: 2, Seed: 7,
		ScratchDir: t.TempDir(), Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	l, err := core.New(core.Config{
		Name: "agree", Kind: core.KindAnalysis, Dataset: st.Dataset.Name,
		EventSize: st.EventSize(), MergeMode: core.MergeSequential, MergeTargetBytes: 64,
	}, st.Services)
	if err != nil {
		t.Fatal(err)
	}
	l.SetResultTimeout(time.Minute)
	if rep, err := l.Run(); err != nil || !rep.Succeeded() || rep.MergesRun == 0 {
		t.Fatalf("run: %v %+v", err, rep)
	}

	ms, cs, ps := st.Services.Master.Stats(), st.ChirpSrv.Stats(), st.Proxy.Stats()
	var page bytes.Buffer
	if err := reg.WritePrometheus(&page); err != nil {
		t.Fatal(err)
	}
	parsed, err := health.ParseMetrics(&page)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, s := range parsed.Series() {
		key := s.Name
		if c := s.Label("component"); c != "" {
			key += "{" + c + "," + s.Label("direction") + "}"
		}
		got[key] = s.Value
	}
	want := map[string]float64{
		"lobster_wq_workers_connected":    float64(ms.WorkersConnected),
		"lobster_wq_workers_seen_total":   float64(ms.WorkersSeen),
		"lobster_wq_workers_lost_total":   float64(ms.WorkersLost),
		"lobster_wq_cores_connected":      float64(ms.CoresConnected),
		"lobster_wq_tasks_waiting":        float64(ms.TasksWaiting),
		"lobster_wq_tasks_running":        float64(ms.TasksRunning),
		"lobster_wq_dispatches_total":     float64(ms.TasksDispatched),
		"lobster_wq_tasks_done_total":     float64(ms.TasksDone),
		"lobster_wq_tasks_failed_total":   float64(ms.TasksFailed),
		"lobster_wq_requeues_total":       float64(ms.Requeues),
		"lobster_wq_results_pending":      float64(ms.ResultsPending),
		"lobster_wq_bytes_sent_total":     float64(ms.BytesSent),
		"lobster_wq_bytes_received_total": float64(ms.BytesReceived),

		"lobster_chirp_connections_total":       float64(cs.Connections),
		"lobster_chirp_active_connections":      float64(cs.ActiveConns),
		"lobster_chirp_queued_connections":      float64(cs.QueuedConns),
		"lobster_chirp_requests_total":          float64(cs.Requests),
		"lobster_chirp_errors_total":            float64(cs.Errors),
		"lobster_chirp_bytes_in_total":          float64(cs.BytesIn),
		"lobster_chirp_bytes_out_total":         float64(cs.BytesOut),
		"lobster_bytes_total{chirp_server,in}":  float64(cs.BytesIn),
		"lobster_bytes_total{chirp_server,out}": float64(cs.BytesOut),

		"lobster_squid_hits_total":          float64(ps.Hits),
		"lobster_squid_misses_total":        float64(ps.Misses),
		"lobster_squid_hit_ratio":           ps.HitRate(),
		"lobster_squid_origin_errors_total": float64(ps.OriginErrors),
		"lobster_squid_bytes_served_total":  float64(ps.BytesServed),
		"lobster_squid_bytes_fetched_total": float64(ps.BytesFetched),
		"lobster_bytes_total{squid,out}":    float64(ps.BytesServed),
		"lobster_bytes_total{squid,in}":     float64(ps.BytesFetched),
		"lobster_squid_cached_objects":      float64(ps.CachedObjects),
		"lobster_squid_cached_bytes":        float64(ps.CachedBytes),
		"lobster_squid_evictions_total":     float64(ps.Evictions),
		"lobster_squid_coalesced_total":     float64(ps.Coalesced),
	}
	for key, w := range want {
		if g, ok := got[key]; !ok {
			t.Errorf("%s: no series on the page", key)
		} else if g != w {
			t.Errorf("%s = %v on the page, %v in Stats", key, g, w)
		}
	}
	// The histogram sums float seconds, Stats integer nanoseconds.
	if g, w := got["lobster_chirp_queue_wait_seconds_sum"], cs.QueueWaitSum.Seconds(); math.Abs(g-w) > 1e-6 {
		t.Errorf("lobster_chirp_queue_wait_seconds_sum = %v on the page, %v in Stats", g, w)
	}
	// The run moved something through every layer compared above.
	if ms.TasksDone == 0 || ms.BytesSent == 0 || ms.BytesReceived == 0 || cs.BytesIn == 0 || cs.BytesOut == 0 || ps.Hits == 0 || ps.BytesFetched == 0 {
		t.Errorf("a layer saw no traffic: %+v %+v %+v", ms, cs, ps)
	}
	for _, f := range parsed.Families {
		if strings.HasSuffix(f.Name, "_total") && f.Type != "counter" {
			t.Errorf("%s is # TYPE %s, want counter", f.Name, f.Type)
		}
	}
}
