package health

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lobster/internal/monitor"
	"lobster/internal/profiling"
	"lobster/internal/telemetry"
)

// StaticSource replays a fixed exposition payload — benchmarks and tests
// use it to model a fleet without sockets.
type StaticSource struct {
	Text []byte
}

// Scrape parses the payload.
func (s *StaticSource) Scrape() ([]Series, error) {
	page, err := ParseMetrics(strings.NewReader(string(s.Text)))
	if err != nil {
		return nil, err
	}
	return page.Series(), nil
}

// failSource fails until revived.
type failSource struct {
	fail bool
	next Source
}

func (f *failSource) Scrape() ([]Series, error) {
	if f.fail {
		return nil, errors.New("connection refused")
	}
	return f.next.Scrape()
}

func TestHubEvictionSpikeOnSimulatedClock(t *testing.T) {
	reg := telemetry.NewRegistry()
	evictions := reg.Counter("lobster_cluster_evictions_total", "Evictions.")
	now := 0.0
	reg.SetClock(func() float64 { return now })

	var buf bytes.Buffer
	evl := telemetry.NewEventLog(&buf, func() float64 { return now })

	hub := NewHub(Config{
		Endpoints: []Endpoint{{Name: "master", Component: "master", Source: &RegistrySource{Reg: reg}}},
		Rules:     NewRuleSet(DefaultRules()),
		Clock:     func() float64 { return now },
		Log:       evl,
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

func TestHubEndpointDown(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("lobster_test_total", "t.").Inc()
	src := &failSource{next: &RegistrySource{Reg: reg}}
	now := 0.0
	hub := NewHub(Config{
		Endpoints: []Endpoint{{Name: "worker-1", Component: "worker", Source: src}},
		Rules:     NewRuleSet(nil),
		Clock:     func() float64 { now++; return now },
		DownAfter: 2,
	})
	hub.Tick() // healthy baseline
	f := hub.Fleet()
	if !f.Endpoints[0].Up || f.Endpoints[0].AgeSec != 0 {
		t.Fatalf("baseline endpoint state: %+v", f.Endpoints[0])
	}

	src.fail = true
	if got := hub.Tick(); len(got) != 0 {
		t.Fatalf("down fired after 1 failure with DownAfter=2: %+v", got)
	}
	// Last-good series stay merged while the endpoint is down, aged.
	f = hub.Fleet()
	if f.Endpoints[0].Up || f.Endpoints[0].Err == "" || f.Endpoints[0].AgeSec <= 0 {
		t.Fatalf("failing endpoint state: %+v", f.Endpoints[0])
	}
	if v := f.Value("lobster_test_total", nil); v != 1 {
		t.Fatalf("stale series dropped from merge: %v", v)
	}
	got := hub.Tick()
	if len(got) != 1 || got[0].Rule != "endpoint_down" || !got[0].Firing() {
		t.Fatalf("want endpoint_down, got %+v", got)
	}
	if !strings.Contains(got[0].Help, "worker-1") {
		t.Fatalf("down alert names no endpoint: %+v", got[0])
	}
	src.fail = false
	got = hub.Tick()
	if len(got) != 1 || got[0].State != "resolved" {
		t.Fatalf("want endpoint_down resolved, got %+v", got)
	}
}

func TestHubStampsComponentLabels(t *testing.T) {
	regA, regB := telemetry.NewRegistry(), telemetry.NewRegistry()
	regA.Gauge("lobster_depth", "d.").Set(3)
	regB.Gauge("lobster_depth", "d.").Set(5)
	hub := NewHub(Config{
		Endpoints: []Endpoint{
			{Name: "worker-1", Component: "worker", Source: &RegistrySource{Reg: regA}},
			{Name: "worker-2", Component: "worker", Source: &RegistrySource{Reg: regB}},
		},
		Rules: NewRuleSet(nil),
		Clock: func() float64 { return 1 },
	})
	hub.Tick()
	f := hub.Fleet()
	if v := f.Value("lobster_depth", map[string]string{"component": "worker"}); v != 8 {
		t.Fatalf("fleet sum = %v, want 8", v)
	}
	if v := f.Value("lobster_depth", map[string]string{"instance": "worker-2"}); v != 5 {
		t.Fatalf("instance select = %v, want 5", v)
	}
	agg := f.Aggregate()
	found := false
	for _, a := range agg {
		if a.Name == "lobster_depth" {
			found = true
			if a.Total != 8 || a.Max != 5 || a.N != 2 || a.PerComponent["worker"] != 8 {
				t.Fatalf("aggregate wrong: %+v", a)
			}
		}
	}
	if !found {
		t.Fatal("lobster_depth missing from aggregates")
	}
}

// TestHubHTTPScrapeAndProfileCapture drives the full live path: an HTTP
// endpoint serving a real registry mux with pprof attached, a rule that
// fires, and a profile bundle archived next to the alert.
func TestHubHTTPScrapeAndProfileCapture(t *testing.T) {
	reg := telemetry.NewRegistry()
	queued := reg.Gauge("lobster_chirp_queued_connections", "Queued.")
	mux := reg.Mux()
	profiling.AttachPprof(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	dir := t.TempDir()
	now := 0.0
	var buf bytes.Buffer
	evl := telemetry.NewEventLog(&buf, func() float64 { return now })
	hubReg := telemetry.NewRegistry()
	hub := NewHub(Config{
		Endpoints:  []Endpoint{{Name: "chirpd", Component: "chirpd", Source: &HTTPSource{BaseURL: srv.URL}}},
		Clock:      func() float64 { now += 5; return now },
		Log:        evl,
		ProfileDir: dir,
		Registry:   hubReg,
	})

	hub.Tick()
	queued.Set(20) // over the chirp_pool_exhausted threshold (8), For=2
	hub.Tick()
	alerts := hub.Tick()
	if len(alerts) != 1 || alerts[0].Rule != "chirp_pool_exhausted" {
		t.Fatalf("want chirp_pool_exhausted, got %+v", alerts)
	}
	bundle := alerts[0].Profile
	if bundle == "" {
		t.Fatal("no profile bundle captured")
	}
	for _, name := range []string{"alert.json", "chirpd-goroutine.txt", "chirpd-heap.pb.gz"} {
		if _, err := os.Stat(filepath.Join(bundle, name)); err != nil {
			t.Errorf("bundle missing %s: %v", name, err)
		}
	}
	raw, err := os.ReadFile(filepath.Join(bundle, "alert.json"))
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Rule  string `json:"rule"`
		Alert struct {
			Rule string `json:"rule"`
		} `json:"alert"`
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	if manifest.Rule != "chirp_pool_exhausted" || manifest.Alert.Rule != "chirp_pool_exhausted" {
		t.Fatalf("manifest = %+v", manifest)
	}
	// The goroutine dump is a real pprof text document.
	gr, _ := os.ReadFile(filepath.Join(bundle, "chirpd-goroutine.txt"))
	if !strings.Contains(string(gr), "goroutine") {
		t.Fatalf("goroutine profile looks wrong: %q", string(gr[:min(len(gr), 80)]))
	}
	// A profile_bundle event landed on the log alongside the alert.
	evl.Flush()
	if !strings.Contains(buf.String(), `"profile_bundle"`) {
		t.Fatal("no profile_bundle event emitted")
	}
	// Hub self-telemetry counted the scrapes.
	var page strings.Builder
	hubReg.WritePrometheus(&page)
	if !strings.Contains(page.String(), "lobster_fleet_scrapes_total 3") {
		t.Fatalf("hub telemetry missing scrape count:\n%s", page.String())
	}
}

// TestHubFederatedPage: two endpoints on a fixed clock share one family
// and chirp_pool_exhausted fires. The hub's /metrics page carries each
// endpoint's series with component and instance stamped (an endpoint's
// own component label kept as exported_component), one TYPE line per
// family with the family's lines contiguous, the per-endpoint scrape
// gauges and the firing rule — all an HTTP scrape can read back.
func TestHubFederatedPage(t *testing.T) {
	regA, regB := telemetry.NewRegistry(), telemetry.NewRegistry()
	regA.Gauge("lobster_chirp_queued_connections", "Queued.").Set(30)
	regA.CounterVec("lobster_bytes_total", "Bytes.", "component").With("chirp").Add(5)
	regB.Gauge("lobster_chirp_queued_connections", "Queued.").Set(20)
	regB.Histogram("lobster_wq_worker_exec_seconds", "Exec.", []float64{1}).Observe(3)
	hub := NewHub(Config{
		Endpoints: []Endpoint{
			{Name: "chirpd-1", Component: "chirpd", Source: &RegistrySource{Reg: regA}},
			{Name: "chirpd-2", Component: "chirpd", Source: &RegistrySource{Reg: regB}},
			{Name: "gone", Component: "worker", Source: &failSource{fail: true}},
		},
		Clock:    func() float64 { return 7 },
		Registry: telemetry.NewRegistry(),
	})
	for i := 0; i < 3; i++ {
		hub.Tick() // chirp_pool_exhausted fires on the third (For=2)
	}

	srv := httptest.NewServer(telemetry.MetricsHandler(hub))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	page := string(raw)

	// One TYPE line per family, and every sample under its own family's.
	typed := map[string]bool{}
	current := ""
	for _, line := range strings.Split(strings.TrimSpace(page), "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			current, _, _ = strings.Cut(name, " ")
			if typed[current] {
				t.Errorf("family %s typed twice", current)
			}
			typed[current] = true
			continue
		}
		switch line[:strings.IndexAny(line, "{ ")] {
		case current, current + "_bucket", current + "_sum", current + "_count":
		default:
			t.Errorf("sample %q outside its family (under %s)", line, current)
		}
	}

	p, err := ParseMetrics(strings.NewReader(page))
	if err != nil {
		t.Fatal(err)
	}
	f := &Fleet{Series: p.Series()}
	f.index()
	for _, c := range []struct {
		name  string
		match map[string]string
		want  float64
	}{
		{"lobster_chirp_queued_connections", map[string]string{"component": "chirpd", "instance": "chirpd-1"}, 30},
		{"lobster_chirp_queued_connections", map[string]string{"component": "chirpd", "instance": "chirpd-2"}, 20},
		{"lobster_wq_worker_exec_seconds_count", map[string]string{"instance": "chirpd-2"}, 1},
		{"lobster_fleet_endpoint_scrape_failures", map[string]string{"instance": "chirpd-1"}, 0},
		{"lobster_fleet_endpoint_scrape_failures", map[string]string{"component": "worker", "instance": "gone"}, 3},
		{"lobster_fleet_endpoint_scrape_age_seconds", map[string]string{"instance": "chirpd-2"}, 0},
		{"lobster_fleet_endpoint_scrape_age_seconds", map[string]string{"instance": "gone"}, -1},
		{"lobster_fleet_rule_firing", map[string]string{"rule": "chirp_pool_exhausted"}, 1},
		{"lobster_fleet_rule_firing", map[string]string{"rule": "eviction_spike"}, 0},
		{"lobster_fleet_scrapes_total", nil, 9},
		{"lobster_bytes_total", map[string]string{"component": "chirpd", "exported_component": "chirp"}, 5},
	} {
		sel := f.Select(c.name, c.match)
		if len(sel) != 1 || sel[0].Value != c.want {
			t.Errorf("%s%v = %+v, want one series at %v", c.name, c.match, sel, c.want)
		}
	}
	if got := len(f.Select("lobster_chirp_queued_connections", nil)); got != 2 {
		t.Errorf("queued connections series = %d, want one per endpoint", got)
	}
	if p.Family("lobster_wq_worker_exec_seconds").Type != "histogram" {
		t.Errorf("histogram family lost its type:\n%s", page)
	}
}
