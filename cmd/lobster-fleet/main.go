// Command lobster-fleet is the fleet monitoring hub: it scrapes every
// component's /metrics endpoint, merges the series into cluster-wide
// aggregates, evaluates the anomaly rule set, appends typed "alert"
// events to a JSONL event log, and archives pprof bundles from the
// affected endpoints when a profiling-enabled rule fires.
//
// Usage:
//
//	lobster-fleet -scrape master=http://127.0.0.1:9099 \
//	              -scrape chirpd=http://127.0.0.1:9095 \
//	              -interval 5s -event-log fleet.jsonl -profiles ./profiles \
//	              -http 127.0.0.1:9100
//
//	lobster-fleet -scrape master=http://127.0.0.1:9099 -once   # one tick, print, exit
//
// The hub's own address serves /metrics: its own series, per-endpoint
// scrape gauges, per-rule firing gauges and every endpoint's series with
// component and instance stamped (`lobster -top` renders it).
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"lobster/internal/health"
	"lobster/internal/monitor"
	"lobster/internal/tabulate"
	"lobster/internal/telemetry"
)

// scrapeFlags accumulates repeated -scrape name=url specs.
type scrapeFlags []health.Endpoint

func (s *scrapeFlags) String() string { return fmt.Sprintf("%d endpoints", len(*s)) }

func (s *scrapeFlags) Set(v string) error {
	name, url, ok := strings.Cut(v, "=")
	if !ok || name == "" || url == "" {
		return fmt.Errorf("want name=url, got %q", v)
	}
	*s = append(*s, health.Endpoint{
		Name:      name,
		Component: componentOf(name),
		Source:    &health.HTTPSource{BaseURL: url},
	})
	return nil
}

// componentOf derives the component label from an instance name:
// "worker-3" → "worker".
func componentOf(name string) string {
	if i := strings.LastIndexAny(name, "-."); i > 0 {
		digits := true
		for _, c := range name[i+1:] {
			if c < '0' || c > '9' {
				digits = false
				break
			}
		}
		if digits && i+1 < len(name) {
			return name[:i]
		}
	}
	return name
}

// options holds the command's flags.
type options struct {
	eps                                     scrapeFlags
	rulesPath, evlogPath, profDir, httpAddr string
	interval                                time.Duration
	evlogMax                                int64
	downAfter                               int
	once                                    bool
}

func main() {
	var o options
	flag.Var(&o.eps, "scrape", "endpoint to scrape as name=base-url (repeatable; name like worker-3 yields component worker)")
	flag.StringVar(&o.rulesPath, "rules", "", "JSON alert rule file (default: built-in detector set)")
	flag.DurationVar(&o.interval, "interval", 5*time.Second, "scrape interval")
	flag.StringVar(&o.evlogPath, "event-log", "", "append typed alert events to this JSONL file")
	flag.Int64Var(&o.evlogMax, "event-log-max", 0, "rotate the event log after this many bytes (0 = never)")
	flag.StringVar(&o.profDir, "profiles", "", "archive pprof bundles here when a profiling-enabled rule fires")
	flag.StringVar(&o.httpAddr, "http", "", "serve the federated fleet page (GET /metrics: hub, endpoint and rule series) on this address")
	flag.IntVar(&o.downAfter, "down-after", 2, "consecutive scrape failures before endpoint_down fires")
	flag.BoolVar(&o.once, "once", false, "run one scrape cycle, print the fleet view, and exit")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "lobster-fleet:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if len(o.eps) == 0 {
		return fmt.Errorf("no endpoints: pass at least one -scrape name=url")
	}
	rules := health.NewRuleSet(health.DefaultRules())
	if o.rulesPath != "" {
		f, err := os.Open(o.rulesPath)
		if err != nil {
			return err
		}
		rules, err = health.LoadRules(f)
		f.Close()
		if err != nil {
			return err
		}
	}
	reg := telemetry.NewRegistry()
	var evl *telemetry.EventLog
	if o.evlogPath != "" {
		var err error
		evl, err = telemetry.OpenEventLogLimit(o.evlogPath, o.evlogMax, reg.Now)
		if err != nil {
			return err
		}
		defer evl.Close()
	}
	hub := health.NewHub(health.Config{
		Endpoints:  o.eps,
		Rules:      rules,
		Interval:   o.interval,
		Log:        evl,
		ProfileDir: o.profDir,
		Registry:   reg,
		DownAfter:  o.downAfter,
		OnAlert: func(a monitor.AlertRecord) {
			fmt.Fprintf(os.Stderr, "alert %-8s %-22s value=%.3g threshold=%.3g %s\n",
				a.State, a.Rule, a.Value, a.Threshold, a.Help)
		},
	})

	if o.once {
		hub.Tick()
		printFleet(hub)
		return nil
	}

	if o.httpAddr != "" {
		lis, err := net.Listen("tcp", o.httpAddr)
		if err != nil {
			return fmt.Errorf("hub listener: %w", err)
		}
		defer lis.Close()
		mux := http.NewServeMux()
		mux.Handle("/metrics", telemetry.MetricsHandler(hub))
		go http.Serve(lis, mux)
		fmt.Printf("fleet hub on http://%s/metrics\n", lis.Addr())
	}

	fmt.Printf("scraping %d endpoints every %s, %d rules armed\n",
		len(o.eps), o.interval, len(rules.Rules))
	stop := make(chan struct{})
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	go func() { <-ch; close(stop) }()
	hub.Tick() // prime immediately rather than waiting one interval
	hub.Run(stop)

	printFleet(hub)
	alerts := hub.Alerts()
	fmt.Printf("shutting down: %d ticks, %d alert transitions\n", hub.Ticks(), len(alerts))
	return nil
}

// printFleet renders the endpoint table and top fleet aggregates.
func printFleet(hub *health.Hub) {
	f := hub.Fleet()
	if f == nil {
		return
	}
	tb := tabulate.NewTable("fleet", "ENDPOINT", "COMPONENT", "STATE", "AGE", "SERIES", "ERROR")
	for _, e := range f.Endpoints {
		state, age := "up", fmt.Sprintf("%.1fs", e.AgeSec)
		if !e.Up {
			state = "down"
		}
		if e.AgeSec < 0 {
			age = "never"
		}
		tb.Row(e.Name, e.Component, state, age, fmt.Sprint(e.Series), e.Err)
	}
	fmt.Print(tb.Render())
	if firing := hub.Firing(); len(firing) > 0 {
		fmt.Printf("firing: %s\n", strings.Join(firing, ", "))
	}
	at := tabulate.NewTable("aggregates", "SERIES", "TOTAL", "MAX", "N")
	for _, a := range f.Aggregate() {
		if !strings.HasPrefix(a.Name, "lobster_") {
			continue
		}
		at.Row(a.Name, fmt.Sprintf("%.6g", a.Total), fmt.Sprintf("%.6g", a.Max), fmt.Sprint(a.N))
	}
	fmt.Print(at.Render())
}
