package health

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"lobster/internal/monitor"
	"lobster/internal/telemetry"
)

// Config wires a Hub.
type Config struct {
	// Endpoints is the fleet to scrape.
	Endpoints []Endpoint

	// Rules is the detector set; nil means NewRuleSet(DefaultRules()).
	Rules *RuleSet

	// Interval is the Run loop's scrape period (default 5s). Tick is
	// callable directly regardless — the sim plane drives it from
	// simulated time and never calls Run.
	Interval time.Duration

	// Clock stamps fleet views and alerts; nil means wall time.
	Clock telemetry.Clock

	// Log receives typed "alert" (and "profile_bundle") events; may be
	// nil.
	Log *telemetry.EventLog

	// ProfileDir, when set, is where pprof bundles are archived when a
	// profiling-enabled rule fires.
	ProfileDir string

	// OnAlert observes every alert record as it is emitted; may be nil.
	OnAlert func(monitor.AlertRecord)

	// Registry receives the hub's own telemetry; may be nil.
	Registry *telemetry.Registry

	// DownAfter is how many consecutive scrape failures mark an endpoint
	// down (default 2).
	DownAfter int

	// ScrapeTimeout bounds a single tick's scrape phase: endpoints that
	// have not answered by then are counted as failed for the tick and
	// their in-flight requests cancelled, so one hung endpoint cannot
	// stretch a tick past the interval. Default: Interval when set,
	// otherwise 5s.
	ScrapeTimeout time.Duration
}

// Hub is the fleet monitoring loop: scrape, merge, evaluate, alert.
type Hub struct {
	cfg   Config
	rules *RuleSet
	clock telemetry.Clock

	mu     sync.Mutex
	eps    []endpointScrape
	fleet  *Fleet
	alerts []monitor.AlertRecord
	seq    int
	ticks  int64

	scrapes   *telemetry.Counter
	scrapeErr *telemetry.Counter
	alertsCtr *telemetry.Counter
	upGauge   *telemetry.Gauge
	seriesG   *telemetry.Gauge
	firingG   *telemetry.Gauge
}

// NewHub builds a hub from cfg.
func NewHub(cfg Config) *Hub {
	h := &Hub{cfg: cfg, rules: cfg.Rules, clock: cfg.Clock}
	if h.rules == nil {
		h.rules = NewRuleSet(DefaultRules())
	}
	if h.clock == nil {
		h.clock = func() float64 { return float64(time.Now().UnixNano()) / 1e9 }
	}
	if h.cfg.DownAfter <= 0 {
		h.cfg.DownAfter = 2
	}
	if h.cfg.ScrapeTimeout <= 0 {
		if h.cfg.Interval > 0 {
			h.cfg.ScrapeTimeout = h.cfg.Interval
		} else {
			h.cfg.ScrapeTimeout = 5 * time.Second
		}
	}
	h.eps = make([]endpointScrape, len(cfg.Endpoints))
	for i, ep := range cfg.Endpoints {
		h.eps[i] = endpointScrape{ep: ep}
	}
	if reg := cfg.Registry; reg != nil {
		h.scrapes = reg.Counter("lobster_fleet_scrapes_total",
			"Endpoint scrapes attempted by the fleet hub.")
		h.scrapeErr = reg.Counter("lobster_fleet_scrape_errors_total",
			"Endpoint scrapes that failed.")
		h.alertsCtr = reg.Counter("lobster_fleet_alerts_total",
			"Alert state transitions emitted (firing and resolved).")
		h.upGauge = reg.Gauge("lobster_fleet_endpoints_up",
			"Endpoints whose latest scrape succeeded.")
		h.seriesG = reg.Gauge("lobster_fleet_series_merged",
			"Series in the latest merged fleet view.")
		h.firingG = reg.Gauge("lobster_fleet_rules_firing",
			"Rules currently in the firing state.")
	}
	return h
}

// scrapeConcurrency bounds parallel endpoint scrapes per tick.
const scrapeConcurrency = 16

// Tick runs one scrape-merge-evaluate cycle at the hub clock's current
// time and returns the alerts it emitted (state transitions only).
func (h *Hub) Tick() []monitor.AlertRecord {
	now := h.clock()

	h.mu.Lock()
	defer h.mu.Unlock()
	h.ticks++

	// Scrape the fleet in parallel under a shared deadline. Goroutines
	// only send on the buffered channel — never touch hub state — so a
	// straggler that answers after the deadline is simply dropped and
	// its endpoint counted failed for this tick.
	type scrapeResult struct {
		idx    int
		series []Series
		err    error
	}
	ctx, cancel := context.WithTimeout(context.Background(), h.cfg.ScrapeTimeout)
	results := make(chan scrapeResult, len(h.eps))
	sem := make(chan struct{}, scrapeConcurrency)
	for i := range h.eps {
		go func(i int, src Source) {
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-ctx.Done():
				results <- scrapeResult{idx: i, err: ctx.Err()}
				return
			}
			series, err := scrapeSource(ctx, src)
			results <- scrapeResult{idx: i, series: series, err: err}
		}(i, h.eps[i].ep.Source)
	}
	got := make([]bool, len(h.eps))
	apply := func(r scrapeResult) {
		got[r.idx] = true
		e := &h.eps[r.idx]
		if r.err != nil {
			e.fails++
			e.lastErr = r.err.Error()
			return
		}
		e.fails = 0
		e.lastErr = ""
		e.lastOK = now
		e.hasOK = true
		e.stamp(r.series)
	}
	pending := len(h.eps)
collect:
	for pending > 0 {
		select {
		case r := <-results:
			apply(r)
			pending--
		case <-ctx.Done():
			break collect
		}
	}
	cancel()
	// Results that raced the deadline are still good — take them.
drain:
	for pending > 0 {
		select {
		case r := <-results:
			apply(r)
			pending--
		default:
			break drain
		}
	}
	for i := range h.eps {
		if !got[i] {
			h.eps[i].fails++
			h.eps[i].lastErr = "scrape deadline exceeded"
		}
	}
	h.scrapes.Add(int64(len(h.eps)))

	// Merge. Failed endpoints keep contributing their last-good series
	// (marked stale via AgeSec) so one dropped scrape doesn't zero the
	// fleet aggregates and fake a rate collapse.
	f := &Fleet{Time: now, Endpoints: make([]EndpointState, len(h.eps))}
	total := 0
	for i := range h.eps {
		total += len(h.eps[i].series)
	}
	f.Series = make([]Series, 0, total)
	errs := 0
	for i := range h.eps {
		e := &h.eps[i]
		age := -1.0
		if e.hasOK {
			age = now - e.lastOK
		}
		if e.fails > 0 {
			errs++
		}
		f.Endpoints[i] = EndpointState{
			Name:      e.ep.Name,
			Component: e.ep.Component,
			Up:        e.fails == 0 && e.hasOK,
			Err:       e.lastErr,
			AgeSec:    age,
			Series:    len(e.series),
			Fails:     e.fails,
		}
		f.Series = append(f.Series, e.series...)
	}
	f.index()
	h.fleet = f
	h.scrapeErr.Add(int64(errs))
	h.upGauge.Set(float64(f.Up()))
	h.seriesG.Set(float64(len(f.Series)))

	// Built-in endpoint-down detection, then the declarative rules.
	var emitted []monitor.AlertRecord
	for i := range f.Endpoints {
		e := &h.eps[i]
		es := &f.Endpoints[i]
		if e.fails >= h.cfg.DownAfter && !e.downFiring {
			e.downFiring = true
			emitted = append(emitted, monitor.AlertRecord{
				Time: now, Rule: "endpoint_down", Severity: "critical",
				State: "firing", Value: float64(e.fails), Threshold: float64(h.cfg.DownAfter),
				Help: fmt.Sprintf("endpoint %s (%s) unreachable: %s", es.Name, es.Component, es.Err),
			})
		}
		if e.fails == 0 && e.downFiring {
			e.downFiring = false
			emitted = append(emitted, monitor.AlertRecord{
				Time: now, Rule: "endpoint_down", Severity: "critical",
				State: "resolved",
				Help:  fmt.Sprintf("endpoint %s (%s) reachable again", es.Name, es.Component),
			})
		}
	}
	for _, tr := range h.rules.Evaluate(f, now) {
		a := monitor.AlertRecord{
			Time: now, Rule: tr.Rule.Name, Severity: tr.Rule.Severity,
			Value: tr.Value, Threshold: tr.Threshold, Help: tr.Rule.Help,
		}
		if tr.Firing {
			a.State = "firing"
			if tr.Rule.Profile && h.cfg.ProfileDir != "" {
				a.Profile = h.captureProfiles(tr.Rule.Name, now, a)
			}
		} else {
			a.State = "resolved"
		}
		emitted = append(emitted, a)
	}
	h.firingG.Set(float64(len(h.rules.Firing())))

	for _, a := range emitted {
		h.alerts = append(h.alerts, a)
		h.alertsCtr.Add(1)
		h.cfg.Log.Emit("alert", a)
		if h.cfg.OnAlert != nil {
			h.cfg.OnAlert(a)
		}
	}
	return emitted
}

// Run ticks on the configured interval until stop closes. The final
// flush of the event log stays the caller's responsibility.
func (h *Hub) Run(stop <-chan struct{}) {
	interval := h.cfg.Interval
	if interval <= 0 {
		interval = 5 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			h.Tick()
		}
	}
}

// Fleet returns the latest merged view (nil before the first tick).
func (h *Hub) Fleet() *Fleet {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.fleet
}

// Alerts returns a copy of every alert emitted so far.
func (h *Hub) Alerts() []monitor.AlertRecord {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]monitor.AlertRecord, len(h.alerts))
	copy(out, h.alerts)
	return out
}

// Firing returns the names of rules currently firing.
func (h *Hub) Firing() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.rules.Firing()
}

// Ticks returns how many scrape cycles have run.
func (h *Hub) Ticks() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.ticks
}

// profilePaths are the pprof documents captured per endpoint on anomaly.
var profilePaths = []struct{ path, file string }{
	{"/debug/pprof/goroutine?debug=1", "goroutine.txt"},
	{"/debug/pprof/heap?debug=0", "heap.pb.gz"},
}

// captureProfiles archives a pprof bundle from every HTTP endpoint into
// ProfileDir/<seq>-<rule>/ and returns the bundle directory (or "" when
// nothing was captured). Best-effort: unreachable endpoints are recorded
// in the manifest and skipped.
func (h *Hub) captureProfiles(rule string, now float64, a monitor.AlertRecord) string {
	h.seq++
	dir := filepath.Join(h.cfg.ProfileDir, fmt.Sprintf("%06d-%s", h.seq, rule))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return ""
	}
	type captured struct {
		Instance string   `json:"instance"`
		Files    []string `json:"files,omitempty"`
		Err      string   `json:"err,omitempty"`
	}
	manifest := struct {
		Time      float64             `json:"t"`
		Rule      string              `json:"rule"`
		Alert     monitor.AlertRecord `json:"alert"`
		Endpoints []captured          `json:"endpoints"`
	}{Time: now, Rule: rule}
	a.Profile = "" // manifest stores the alert sans self-reference
	manifest.Alert = a
	nFiles := 0
	for i := range h.eps {
		src, ok := h.eps[i].ep.Source.(*HTTPSource)
		if !ok {
			continue
		}
		c := captured{Instance: h.eps[i].ep.Name}
		base := strings.TrimRight(src.BaseURL, "/")
		for _, p := range profilePaths {
			name := h.eps[i].ep.Name + "-" + p.file
			if err := fetchToFile(src.client(), base+p.path, filepath.Join(dir, name)); err != nil {
				c.Err = err.Error()
				continue
			}
			c.Files = append(c.Files, name)
			nFiles++
		}
		manifest.Endpoints = append(manifest.Endpoints, c)
	}
	raw, err := json.MarshalIndent(&manifest, "", "  ")
	if err == nil {
		os.WriteFile(filepath.Join(dir, "alert.json"), append(raw, '\n'), 0o644)
	}
	h.cfg.Log.Emit("profile_bundle", map[string]any{
		"rule": rule, "dir": dir, "files": nFiles,
	})
	return dir
}

// fetchToFile GETs url into path, failing on non-200.
func fetchToFile(client *http.Client, url, path string) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, io.LimitReader(resp.Body, 64<<20)); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WritePrometheus writes the hub's /metrics page in Prometheus's
// federation shape: one TYPE line per family, each family's lines
// contiguous, families sorted by name. Within a family come the hub's
// own series (Config.Registry) first; then the gauges it derives from
// its last tick, lobster_fleet_endpoint_scrape_failures and
// lobster_fleet_endpoint_scrape_age_seconds (−1 = never scraped) per
// endpoint and lobster_fleet_rule_firing (0/1) per rule; then every
// endpoint's last good series with component and instance stamped.
// `lobster -top` reads this page like any other /metrics page.
func (h *Hub) WritePrometheus(w io.Writer) error {
	var series []Series
	if h.cfg.Registry != nil {
		own, err := (&RegistrySource{Reg: h.cfg.Registry}).Scrape()
		if err != nil {
			return err
		}
		series = own
	}
	h.mu.Lock()
	if h.fleet != nil {
		for _, e := range h.fleet.Endpoints {
			labels := map[string]string{"component": e.Component, "instance": e.Name}
			series = append(series,
				Series{Name: "lobster_fleet_endpoint_scrape_failures", Labels: labels, Value: float64(e.Fails), Type: "gauge"},
				Series{Name: "lobster_fleet_endpoint_scrape_age_seconds", Labels: labels, Value: e.AgeSec, Type: "gauge"})
		}
	}
	for i, r := range h.rules.Rules {
		v := 0.0
		if h.rules.states[i].firing {
			v = 1
		}
		series = append(series, Series{Name: "lobster_fleet_rule_firing",
			Labels: map[string]string{"rule": r.Name}, Value: v, Type: "gauge"})
	}
	for i := range h.eps {
		series = append(series, h.eps[i].series...)
	}
	h.mu.Unlock()
	var e telemetry.Expo
	writeFamilies(&e, series)
	_, err := e.WriteTo(w)
	return err
}

// writeFamilies writes series through the one exposition writer, grouped
// by family: one TYPE line each, the family's lines contiguous and in
// the order given, families sorted by name.
func writeFamilies(e *telemetry.Expo, series []Series) {
	byFamily := make(map[string][]int)
	var names []string
	for i := range series {
		name := series[i].Family
		if name == "" {
			name = series[i].Name
		}
		if _, ok := byFamily[name]; !ok {
			names = append(names, name)
		}
		byFamily[name] = append(byFamily[name], i)
	}
	sort.Strings(names)
	var labels []Label
	for _, name := range names {
		idx := byFamily[name]
		e.Type(name, series[idx[0]].Type)
		for _, i := range idx {
			s := &series[i]
			labels = labels[:0]
			for k, v := range s.Labels {
				labels = append(labels, Label{Name: k, Value: v})
			}
			sort.Slice(labels, func(a, b int) bool { return labels[a].Name < labels[b].Name })
			e.Sample(s.Name, labels, s.Value)
		}
	}
}
