package main

import (
	"errors"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"testing"

	"lobster/internal/health"
	"lobster/internal/telemetry"
)

// TestWatchSparklines feeds the watch-mode history a few refreshes and
// checks the rendered dashboard grows a trend column with a sparkline
// per series — and that one-shot mode (no history) stays column-stable.
func TestWatchSparklines(t *testing.T) {
	v := newTopView([]health.Series{
		{Name: "lobster_wq_tasks_done_total", Type: "counter", Value: 40, Family: "lobster_wq_tasks_done_total"},
		{Name: "lobster_wq_tasks_running", Type: "gauge", Value: 3, Family: "lobster_wq_tasks_running"},
	})
	hist := newTopHistory()
	for i := 0; i < 4; i++ {
		hist.seq++
		hist.add("lobster_wq_tasks_done_total", nil, float64(i*10))
		hist.add("lobster_wq_tasks_running", nil, 3)
	}

	out := v.render(0, nil, hist)
	if !strings.Contains(out, "trend") {
		t.Errorf("watch render lacks trend column:\n%s", out)
	}
	if !strings.Contains(out, "▁") || !strings.Contains(out, "█") {
		t.Errorf("ramping counter should render a rising sparkline:\n%s", out)
	}
	if !strings.Contains(out, "▅▅▅▅") {
		t.Errorf("flat gauge should render a flat mid-height sparkline:\n%s", out)
	}

	oneShot := v.render(0, nil, nil)
	if strings.Contains(oneShot, "trend") {
		t.Errorf("one-shot render must not grow a trend column:\n%s", oneShot)
	}
}

// TestTopHistoryWindow: the sparkline tails at most sparkPoints samples
// and needs at least two before drawing anything.
func TestTopHistoryWindow(t *testing.T) {
	hist := newTopHistory()
	hist.seq++
	hist.add("m", nil, 1)
	if s := hist.spark("m", nil); s != "" {
		t.Errorf("single sample rendered %q, want empty", s)
	}
	for i := 0; i < 3*sparkPoints; i++ {
		hist.seq++
		hist.add("m", nil, float64(i))
	}
	if n := len([]rune(hist.spark("m", nil))); n != sparkPoints {
		t.Errorf("sparkline length = %d runes, want %d", n, sparkPoints)
	}
	if s := hist.spark("absent", nil); s != "" {
		t.Errorf("unknown series rendered %q, want empty", s)
	}
}

// topOnce runs the one-shot dashboard against a live /metrics server.
func topOnce(t *testing.T, reg *telemetry.Registry) string {
	t.Helper()
	srv := httptest.NewServer(reg.Mux())
	defer srv.Close()
	var b strings.Builder
	if err := top(&b, srv.URL, false, 0); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestTopSingleProcess: one process's page draws one table with one row
// per histogram, its n and mean from _count and _sum, and the runtime
// breakdown from the stage histograms; no fleet section.
func TestTopSingleProcess(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("lobster_wq_tasks_done_total", "Done.").Add(12)
	h := reg.Histogram("lobster_wq_worker_exec_seconds", "Exec.", []float64{1, 10})
	h.Observe(2)
	h.Observe(4)
	st := telemetry.NewStageHistograms(reg)
	st.Observe(telemetry.StageSetup, 30)
	st.Observe(telemetry.StageExecute, 90)
	st.Observe(telemetry.StageExecute, 30)

	out := topOnce(t, reg)
	if n := strings.Count(out, "lobster_wq_worker_exec_seconds"); n != 1 {
		t.Errorf("histogram drawn on %d rows, want 1:\n%s", n, out)
	}
	if !strings.Contains(out, "n=2 mean=3") {
		t.Errorf("histogram row lacks n=2 mean=3:\n%s", out)
	}
	for _, want := range []string{"Runtime breakdown", "execute", "120.00", "80.0", "setup", "30.00", "20.0"} {
		if !strings.Contains(out, want) {
			t.Errorf("segment breakdown lacks %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, `lobster_task_stage_seconds{stage=execute}`) || !strings.Contains(out, "n=2 mean=60") {
		t.Errorf("stage histogram row missing:\n%s", out)
	}
	for _, fleetOnly := range []string{"Endpoints", "FIRING", "Fleet aggregates"} {
		if strings.Contains(out, fleetOnly) {
			t.Errorf("single-process page drew %q:\n%s", fleetOnly, out)
		}
	}
}

// TestFleetFlagRefused: -fleet is gone (a hub's page is read like any
// other), so a command line that still passes it fails, naming the flag.
func TestFleetFlagRefused(t *testing.T) {
	if os.Getenv("LOBSTER_TOP_FLEET") != "" {
		os.Args = []string{"lobster", "-top", "http://127.0.0.1:1", "-fleet"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestFleetFlagRefused$")
	cmd.Env = append(os.Environ(), "LOBSTER_TOP_FLEET=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("lobster -top URL -fleet: err %v, want a non-zero exit:\n%s", err, out)
	}
	if !strings.Contains(string(out), "-fleet") {
		t.Errorf("the refusal does not name -fleet:\n%s", out)
	}
}
