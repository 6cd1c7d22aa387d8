package health

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"

	"lobster/internal/monitor"
	"lobster/internal/telemetry"
)

// Config wires a Hub.
type Config struct {
	// Registry is the registry evaluated; its clock stamps the alerts.
	Registry *telemetry.Registry

	// Rules is the detector set; nil means NewRuleSet(DefaultRules()).
	Rules *RuleSet

	// Log receives one typed "alert" event per transition; may be nil.
	Log *telemetry.EventLog

	// ProfileDir, when set, is where this process's profiles are written
	// when a profiling-enabled rule fires.
	ProfileDir string
}

// Hub evaluates a rule set over its process's own registry: each Tick
// reads the registry, evaluates, and emits the transitions as alerts.
type Hub struct {
	cfg   Config
	rules *RuleSet

	mu     sync.Mutex
	alerts []monitor.AlertRecord
	seq    int
}

// NewHub builds a hub from cfg.
func NewHub(cfg Config) *Hub {
	h := &Hub{cfg: cfg, rules: cfg.Rules}
	if h.rules == nil {
		h.rules = NewRuleSet(DefaultRules())
	}
	return h
}

// Tick evaluates the rules over the registry at its clock's current time
// and returns the alerts it emitted (state transitions only).
func (h *Hub) Tick() []monitor.AlertRecord {
	h.mu.Lock()
	defer h.mu.Unlock()
	now := h.cfg.Registry.Now()
	t, err := registryTotals(h.cfg.Registry)
	if err != nil {
		// The registry wrote a page its own parser refuses: a writer
		// bug FuzzPromParse exists to catch. The tick abstains.
		return nil
	}

	var emitted []monitor.AlertRecord
	for _, tr := range h.rules.Evaluate(t, now) {
		a := monitor.AlertRecord{
			Time: now, Rule: tr.Rule.Name, Severity: tr.Rule.Severity,
			Value: tr.Value, Threshold: tr.Threshold, Help: tr.Rule.Help,
		}
		if tr.Firing {
			a.State = "firing"
			if tr.Rule.Profile && h.cfg.ProfileDir != "" {
				a.Profile = h.writeProfiles(tr.Rule.Name)
			}
		} else {
			a.State = "resolved"
		}
		h.cfg.Log.Emit("alert", a)
		emitted = append(emitted, a)
	}
	h.alerts = append(h.alerts, emitted...)
	return emitted
}

// Alerts returns a copy of every alert emitted so far.
func (h *Hub) Alerts() []monitor.AlertRecord {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]monitor.AlertRecord, len(h.alerts))
	copy(out, h.alerts)
	return out
}

// profiles are the runtime/pprof profiles written on anomaly, with the
// debug level each is written at.
var profiles = []struct {
	name, file string
	debug      int
}{
	{"goroutine", "goroutine.txt", 1},
	{"heap", "heap.pb.gz", 0},
}

// writeProfiles writes this process's profiles into
// ProfileDir/<seq>-<rule>/ and returns the bundle directory, or "" when
// it could not be made. Best-effort: a profile that fails to write is
// removed, so a file in the bundle is always a whole profile.
func (h *Hub) writeProfiles(rule string) string {
	h.seq++
	dir := filepath.Join(h.cfg.ProfileDir, fmt.Sprintf("%06d-%s", h.seq, rule))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return ""
	}
	for _, p := range profiles {
		f, err := os.Create(filepath.Join(dir, p.file))
		if err != nil {
			continue
		}
		err = pprof.Lookup(p.name).WriteTo(f, p.debug)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			os.Remove(f.Name())
		}
	}
	return dir
}

// registryTotals reads reg through its /metrics page: WritePrometheus,
// then ParseMetrics, so a rule reads exactly the series an HTTP read of
// the same registry would.
func registryTotals(reg *telemetry.Registry) (Totals, error) {
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		return nil, err
	}
	page, err := ParseMetrics(&b)
	if err != nil {
		return nil, err
	}
	return page.totals(), nil
}

// Totals is the view a tick's rules evaluate: each series name of a page
// (a histogram's _sum and _count under their own names) with its value
// summed over the name's series. A name absent from the page is absent
// from its totals.
type Totals map[string]float64

// totals sums the page's samples by series name.
func (p *Page) totals() Totals {
	t := make(Totals, 64)
	for _, f := range p.Families {
		for i := range f.Samples {
			t[f.Samples[i].Name] += f.Samples[i].Value
		}
	}
	return t
}
