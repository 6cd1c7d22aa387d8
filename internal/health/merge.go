package health

import (
	"sort"
	"strings"
)

// Series is one merged fleet sample: a metric name, its labels (including
// the scraper-stamped "component" and "instance"), and the value at scrape
// time. Type carries the family type so aggregations can distinguish
// cumulative counters from instantaneous gauges; Family names the family
// the sample was written under (a histogram's _sum sits under its base
// name), so the hub's page writes it back under the same one.
type Series struct {
	Name   string
	Labels map[string]string
	Value  float64
	Type   string
	Family string
}

// Label returns the named label, or "".
func (s *Series) Label(name string) string {
	if s.Labels == nil {
		return ""
	}
	return s.Labels[name]
}

// EndpointState is the per-endpoint scrape outcome inside a Fleet view.
type EndpointState struct {
	Name      string
	Component string
	Up        bool
	Err       string
	// AgeSec is the time since the last successful scrape on the hub
	// clock; 0 for a fresh success, negative never-succeeded.
	AgeSec float64
	Series int
	Fails  int // consecutive scrape failures
}

// Fleet is one merged cluster-wide view: every endpoint's series with
// component/instance labels attached, plus per-endpoint scrape health.
type Fleet struct {
	Time      float64
	Endpoints []EndpointState
	Series    []Series

	byName map[string][]int // series indices by metric name
}

// index builds the name lookup once per merge.
func (f *Fleet) index() {
	f.byName = make(map[string][]int, 64)
	for i := range f.Series {
		f.byName[f.Series[i].Name] = append(f.byName[f.Series[i].Name], i)
	}
}

// Select returns the series with the given name whose labels match every
// matcher pair. The returned slices alias the fleet's storage.
func (f *Fleet) Select(name string, match map[string]string) []*Series {
	if f == nil {
		return nil
	}
	idx := f.byName[name]
	out := make([]*Series, 0, len(idx))
	for _, i := range idx {
		s := &f.Series[i]
		ok := true
		for k, v := range match {
			if s.Label(k) != v {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, s)
		}
	}
	return out
}

// Up counts endpoints whose last scrape succeeded.
func (f *Fleet) Up() int {
	n := 0
	for _, e := range f.Endpoints {
		if e.Up {
			n++
		}
	}
	return n
}

// FleetSeries is one cluster-wide aggregate of a metric across every
// endpoint: total (sum), max, and the per-component sums the dashboards
// break down by.
type FleetSeries struct {
	Name         string
	Type         string
	Total        float64
	Max          float64
	N            int
	PerComponent map[string]float64
}

// Aggregate folds every series of each metric name into one FleetSeries.
// Histogram sub-series (_bucket) are skipped — their cumulative counts
// are meaningless summed across le boundaries without alignment; _sum and
// _count aggregate fine and are kept. Returns the aggregates sorted by
// name.
func (f *Fleet) Aggregate() []FleetSeries {
	agg := make(map[string]*FleetSeries, len(f.byName))
	for i := range f.Series {
		s := &f.Series[i]
		if strings.HasSuffix(s.Name, "_bucket") {
			continue
		}
		a := agg[s.Name]
		if a == nil {
			a = &FleetSeries{Name: s.Name, Type: s.Type, PerComponent: make(map[string]float64, 4)}
			agg[s.Name] = a
		}
		a.Total += s.Value
		if s.Value > a.Max || a.N == 0 {
			a.Max = s.Value
		}
		a.N++
		a.PerComponent[s.Label("component")] += s.Value
	}
	out := make([]FleetSeries, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Value is a convenience: the sum over Select(name, match).
func (f *Fleet) Value(name string, match map[string]string) float64 {
	total := 0.0
	for _, s := range f.Select(name, match) {
		total += s.Value
	}
	return total
}
