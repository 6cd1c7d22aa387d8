package health

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lobster/internal/monitor"
	"lobster/internal/telemetry"
)

// TestHubPoolExhaustedOnSimulatedClock: the hub reads time from the
// registry's clock, so a stepped clock drives the default rules through
// quiet ticks, firing on the For-th tick over the threshold, and
// resolving after Clear quiet ticks; the transitions round-trip through
// the event log.
func TestHubPoolExhaustedOnSimulatedClock(t *testing.T) {
	reg := telemetry.NewRegistry()
	queued := reg.Gauge("lobster_chirp_queued_connections", "Queued.")
	now := 0.0
	reg.SetClock(func() float64 { return now })

	var buf bytes.Buffer
	evl := telemetry.NewEventLog(&buf, reg.Now)

	hub := NewHub(Config{
		Registry: reg,
		Rules:    NewRuleSet(DefaultRules()),
		Log:      evl,
	})

	// Quiet baseline: two ticks under the threshold, no alerts.
	for i := 0; i < 2; i++ {
		now += 10
		queued.Set(3)
		if got := hub.Tick(); len(got) != 0 {
			t.Fatalf("quiet tick emitted %+v", got)
		}
	}
	// Pool saturated: 20 queued connections, over the threshold of 8.
	// For=2 → fires on the second saturated tick.
	now += 10
	queued.Set(20)
	if got := hub.Tick(); len(got) != 0 {
		t.Fatalf("fired one tick early: %+v", got)
	}
	now += 10
	got := hub.Tick()
	if len(got) != 1 || got[0].Rule != "chirp_pool_exhausted" || got[0].State != "firing" {
		t.Fatalf("want chirp_pool_exhausted firing, got %+v", got)
	}
	if got[0].Time != now || got[0].Severity != "warn" || got[0].Value != 20 {
		t.Fatalf("alert metadata wrong: %+v", got[0])
	}
	// Queue drains: Clear=2 quiet ticks resolve it, not one.
	queued.Set(0)
	now += 10
	if got := hub.Tick(); len(got) != 0 {
		t.Fatalf("resolved one tick early: %+v", got)
	}
	now += 10
	resolved := hub.Tick()
	if len(resolved) != 1 || resolved[0].State != "resolved" || resolved[0].Time != now {
		t.Fatalf("want one resolved alert, got %+v", resolved)
	}

	// The transitions are typed "alert" events on the run's log.
	evl.Flush()
	alerts := logAlerts(t, &buf)
	if len(alerts) != 2 || alerts[0].Rule != "chirp_pool_exhausted" || alerts[0].State != "firing" || alerts[1].State != "resolved" {
		t.Fatalf("replayed alerts = %+v", alerts)
	}
}

// TestHubProfileCapture: a profiling rule fires over a registry, and
// the firing alert names the bundle directory under ProfileDir that
// holds this process's goroutine and heap profiles.
func TestHubProfileCapture(t *testing.T) {
	reg := telemetry.NewRegistry()
	queued := reg.Gauge("lobster_chirp_queued_connections", "Queued.")
	now := 0.0
	reg.SetClock(func() float64 { now += 5; return now })

	dir := t.TempDir()
	var buf bytes.Buffer
	evl := telemetry.NewEventLog(&buf, nil)
	hub := NewHub(Config{Registry: reg, Log: evl, ProfileDir: dir})

	hub.Tick()
	queued.Set(20) // over the chirp_pool_exhausted threshold (8), For=2
	hub.Tick()
	alerts := hub.Tick()
	if len(alerts) != 1 || alerts[0].Rule != "chirp_pool_exhausted" || alerts[0].State != "firing" {
		t.Fatalf("want chirp_pool_exhausted firing, got %+v", alerts)
	}
	bundle := alerts[0].Profile
	if filepath.Dir(bundle) != dir || !strings.HasSuffix(bundle, "-chirp_pool_exhausted") {
		t.Fatalf("bundle %q is not a per-alert directory under %s", bundle, dir)
	}
	for _, name := range []string{"goroutine.txt", "heap.pb.gz"} {
		if fi, err := os.Stat(filepath.Join(bundle, name)); err != nil || fi.Size() == 0 {
			t.Errorf("bundle lacks %s: %v", name, err)
		}
	}
	gr, _ := os.ReadFile(filepath.Join(bundle, "goroutine.txt"))
	if !strings.Contains(string(gr), "goroutine") {
		t.Fatalf("goroutine profile looks wrong: %q", string(gr[:min(len(gr), 80)]))
	}

	// The alert, bundle named, is on the event log.
	evl.Flush()
	if got := logAlerts(t, &buf); len(got) != 1 || got[0].Profile != bundle {
		t.Fatalf("logged alerts = %+v, want one naming %s", got, bundle)
	}
}

// logAlerts decodes the "alert" events of an event log.
func logAlerts(t *testing.T, r io.Reader) []monitor.AlertRecord {
	t.Helper()
	var alerts []monitor.AlertRecord
	err := telemetry.ReadEvents(r, func(ev telemetry.Event) error {
		if ev.Type != "alert" {
			return nil
		}
		var a monitor.AlertRecord
		if err := json.Unmarshal(ev.Data, &a); err != nil {
			return err
		}
		alerts = append(alerts, a)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return alerts
}
