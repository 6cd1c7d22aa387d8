package health

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lobster/internal/monitor"
	"lobster/internal/telemetry"
)

func TestHubEvictionSpikeOnSimulatedClock(t *testing.T) {
	reg := telemetry.NewRegistry()
	evictions := reg.Counter("lobster_cluster_evictions_total", "Evictions.")
	now := 0.0
	reg.SetClock(func() float64 { return now })

	var buf bytes.Buffer
	evl := telemetry.NewEventLog(&buf, reg.Now)

	hub := NewHub(Config{
		Registry: reg,
		Rules:    NewRuleSet(DefaultRules()),
		Log:      evl,
	})

	// Quiet baseline: two ticks, no alerts.
	for i := 0; i < 2; i++ {
		now += 10
		if got := hub.Tick(); len(got) != 0 {
			t.Fatalf("quiet tick emitted %+v", got)
		}
	}
	// Eviction storm: 100 evictions per 10s tick = 10/s, over the 0.5/s
	// threshold. For=2 → fires on the second storm tick.
	now += 10
	evictions.Add(100)
	if got := hub.Tick(); len(got) != 0 {
		t.Fatalf("fired one tick early: %+v", got)
	}
	now += 10
	evictions.Add(100)
	got := hub.Tick()
	if len(got) != 1 || got[0].Rule != "eviction_spike" || !got[0].Firing() {
		t.Fatalf("want eviction_spike firing, got %+v", got)
	}
	if got[0].Time != now || got[0].Severity != "critical" {
		t.Fatalf("alert metadata wrong: %+v", got[0])
	}
	// Storm ends: Clear=3 quiet ticks resolve it.
	var resolved []monitor.AlertRecord
	for i := 0; i < 3; i++ {
		now += 10
		resolved = append(resolved, hub.Tick()...)
	}
	if len(resolved) != 1 || resolved[0].State != "resolved" {
		t.Fatalf("want one resolved alert, got %+v", resolved)
	}

	// The typed events round-trip through the monitor's replay path.
	evl.Flush()
	var m monitor.Monitor
	if _, err := m.ReplayLog(strings.NewReader(buf.String())); err != nil {
		t.Fatal(err)
	}
	alerts := m.Alerts()
	if len(alerts) != 2 || alerts[0].Rule != "eviction_spike" || !alerts[0].Firing() || alerts[1].State != "resolved" {
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
	if len(alerts) != 1 || alerts[0].Rule != "chirp_pool_exhausted" || !alerts[0].Firing() {
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

	// The alert, bundle named, replays off the event log.
	evl.Flush()
	var m monitor.Monitor
	if _, err := m.ReplayLog(&buf); err != nil {
		t.Fatal(err)
	}
	if got := m.Alerts(); len(got) != 1 || got[0].Profile != bundle {
		t.Fatalf("replayed alerts = %+v, want one naming %s", got, bundle)
	}
}
