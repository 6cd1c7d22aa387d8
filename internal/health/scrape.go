package health

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"lobster/internal/telemetry"
)

// Source produces one endpoint's series at scrape time. The hub stamps
// component/instance labels onto whatever the source returns.
type Source interface {
	Scrape() ([]Series, error)
}

// ContextSource is a Source that honours cancellation. The hub prefers
// it when present, so its per-tick scrape deadline propagates into the
// endpoint's HTTP request instead of merely abandoning the goroutine.
type ContextSource interface {
	ScrapeContext(ctx context.Context) ([]Series, error)
}

// scrapeSource scrapes src, threading ctx through when it can.
func scrapeSource(ctx context.Context, src Source) ([]Series, error) {
	if cs, ok := src.(ContextSource); ok {
		return cs.ScrapeContext(ctx)
	}
	return src.Scrape()
}

// Endpoint is one scraped component of the fleet.
type Endpoint struct {
	Name      string // instance label, unique within the fleet ("worker-3")
	Component string // component label ("master", "worker", "chirpd", "squid")
	Source    Source
}

// HTTPSource scrapes a live process's GET /metrics (the plane every
// daemon serves via telemetry.Registry.Mux) and parses the Prometheus
// text. BaseURL also roots the /debug/pprof endpoints the hub captures
// profiles from when a rule fires.
type HTTPSource struct {
	BaseURL string
	Client  *http.Client
}

func (s *HTTPSource) client() *http.Client {
	if s.Client != nil {
		return s.Client
	}
	return defaultClient
}

var defaultClient = &http.Client{Timeout: 5 * time.Second}

// Scrape fetches and parses /metrics.
func (s *HTTPSource) Scrape() ([]Series, error) {
	return s.ScrapeContext(context.Background())
}

// ScrapeContext is Scrape under a deadline: the request is built with
// ctx, so the hub's per-tick timeout aborts a hung endpoint mid-dial or
// mid-body instead of waiting out the client timeout.
func (s *HTTPSource) ScrapeContext(ctx context.Context) ([]Series, error) {
	url := strings.TrimRight(s.BaseURL, "/") + "/metrics"
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.client().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	page, err := ParseMetrics(resp.Body)
	if err != nil {
		return nil, err
	}
	return page.Series(), nil
}

// RegistrySource scrapes an in-process registry — the path the
// simulation plane uses, where there is no HTTP listener and time is
// simulated. It reads the registry exactly as a live hub does, through
// WritePrometheus and ParseMetrics, so the sim-plane goldens read the
// same series a scrape of the same registry over HTTP would.
type RegistrySource struct {
	Reg *telemetry.Registry
}

// Scrape writes the registry's page and parses it.
func (s *RegistrySource) Scrape() ([]Series, error) {
	if s.Reg == nil {
		return nil, fmt.Errorf("health: registry source has no registry")
	}
	var b bytes.Buffer
	if err := s.Reg.WritePrometheus(&b); err != nil {
		return nil, err
	}
	page, err := ParseMetrics(&b)
	if err != nil {
		return nil, err
	}
	return page.Series(), nil
}

// endpointScrape is one endpoint's scrape state inside the hub.
type endpointScrape struct {
	ep         Endpoint
	lastOK     float64 // hub-clock time of the last successful scrape
	hasOK      bool
	fails      int // consecutive failures
	lastErr    string
	series     []Series // last successful payload, component/instance stamped
	downFiring bool     // built-in endpoint_down alert state
}

// stamp attaches the component/instance labels to a fresh scrape. A
// label the endpoint already set under either name moves to
// exported_<name>, Prometheus's rule, so two of its series never
// collapse into one on the hub's page.
func (e *endpointScrape) stamp(series []Series) {
	for i := range series {
		l := series[i].Labels
		if l == nil {
			l = make(map[string]string, 2)
			series[i].Labels = l
		}
		if c, ok := l["component"]; ok && c != e.ep.Component {
			l["exported_component"] = c
		}
		if n, ok := l["instance"]; ok && n != e.ep.Name {
			l["exported_instance"] = n
		}
		l["component"], l["instance"] = e.ep.Component, e.ep.Name
	}
	e.series = series
}
