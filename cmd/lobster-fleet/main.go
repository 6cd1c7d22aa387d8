// Command lobster-fleet is the fleet monitoring hub: it scrapes every
// component's /metrics endpoint, merges the series into cluster-wide
// aggregates, evaluates the anomaly rule set, appends typed "alert"
// events to a JSONL event log, records every merged scrape into an
// embedded time-series store, and archives pprof bundles from the
// affected endpoints when a profiling-enabled rule fires.
//
// Usage:
//
//	lobster-fleet -scrape master=http://127.0.0.1:9099 \
//	              -scrape chirpd=http://127.0.0.1:9095 \
//	              -interval 5s -event-log fleet.jsonl -profiles ./profiles \
//	              -tsdb ./history -http 127.0.0.1:9100
//
//	lobster-fleet -scrape master=http://127.0.0.1:9099 -once        # one tick, print, exit
//	lobster-fleet -scrape master=http://127.0.0.1:9099 -once -json  # machine-readable snapshot
//
//	lobster-fleet -plot -tsdb ./history \
//	              -q 'avg_over_time(lobster_cluster_pilots_up[600])' \
//	              -step 300                                          # replot a past run's ramp
//
// The hub's own address serves /metrics (hub self-telemetry), /fleet
// (the merged JSON view `lobster -top -fleet` renders), and /query
// (range queries over the recorded history).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"time"

	"lobster/internal/health"
	"lobster/internal/monitor"
	"lobster/internal/tabulate"
	"lobster/internal/telemetry"
	"lobster/internal/tsdb"
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
	eps                                              scrapeFlags
	rulesPath, evlogPath, profDir, httpAddr, tsdbDir string
	interval, retention                              time.Duration
	evlogMax                                         int64
	downAfter                                        int
	once, jsonOut                                    bool

	// -plot and what it reads besides tsdbDir.
	plot, csvOut     bool
	query            string
	start, end, step float64
	width            int
}

func main() {
	var o options
	flag.Var(&o.eps, "scrape", "endpoint to scrape as name=base-url (repeatable; name like worker-3 yields component worker)")
	flag.StringVar(&o.rulesPath, "rules", "", "JSON alert rule file (default: built-in detector set)")
	flag.DurationVar(&o.interval, "interval", 5*time.Second, "scrape interval")
	flag.StringVar(&o.evlogPath, "event-log", "", "append typed alert events to this JSONL file")
	flag.Int64Var(&o.evlogMax, "event-log-max", 0, "rotate the event log after this many bytes (0 = never)")
	flag.StringVar(&o.profDir, "profiles", "", "archive pprof bundles here when a profiling-enabled rule fires")
	flag.StringVar(&o.httpAddr, "http", "", "serve hub telemetry (/metrics), the merged fleet view (/fleet), and history queries (/query) on this address")
	flag.IntVar(&o.downAfter, "down-after", 2, "consecutive scrape failures before endpoint_down fires")
	flag.BoolVar(&o.once, "once", false, "run one scrape cycle, print the fleet view, and exit")
	flag.BoolVar(&o.jsonOut, "json", false, "with -once: print the hub view as JSON instead of tables")
	flag.StringVar(&o.tsdbDir, "tsdb", "", "persist scrape history as compressed segments in this directory")
	flag.DurationVar(&o.retention, "retention", 24*time.Hour, "raw-sample retention in the history store")
	flag.BoolVar(&o.plot, "plot", false, "query a recorded -tsdb directory and render it (no scraping)")
	flag.StringVar(&o.query, "q", "", "with -plot: range query, e.g. 'sum(rate(lobster_wq_dispatches_total[600]))'")
	flag.Float64Var(&o.start, "start", 0, "with -plot: range start in seconds (0 = end minus one hour)")
	flag.Float64Var(&o.end, "end", 0, "with -plot: range end in seconds (0 = newest sample)")
	flag.Float64Var(&o.step, "step", 60, "with -plot: evaluation step in seconds")
	flag.BoolVar(&o.csvOut, "csv", false, "with -plot: emit CSV rows instead of an ASCII chart")
	flag.IntVar(&o.width, "width", 72, "with -plot: chart width in columns")
	flag.Parse()
	var err error
	if o.plot {
		err = runPlot(os.Stdout, o.tsdbDir, o.query, o.start, o.end, o.step, o.csvOut, o.width)
	} else {
		err = run(o)
	}
	if err != nil {
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
	var store *tsdb.Store
	if o.tsdbDir != "" {
		var err error
		store, err = tsdb.Open(tsdb.Config{
			Dir:       o.tsdbDir,
			Retention: o.retention.Seconds(),
			Log:       evl,
		})
		if err != nil {
			return fmt.Errorf("opening history store: %w", err)
		}
		defer store.Close()
	}
	hub := health.NewHub(health.Config{
		Endpoints:  o.eps,
		Rules:      rules,
		Interval:   o.interval,
		Log:        evl,
		ProfileDir: o.profDir,
		Registry:   reg,
		DownAfter:  o.downAfter,
		Store:      store,
		OnAlert: func(a monitor.AlertRecord) {
			fmt.Fprintf(os.Stderr, "alert %-8s %-22s value=%.3g threshold=%.3g %s\n",
				a.State, a.Rule, a.Value, a.Threshold, a.Help)
		},
	})

	if o.once {
		hub.Tick()
		if o.jsonOut {
			return printJSON(os.Stdout, hub)
		}
		printFleet(hub)
		return nil
	}

	if o.httpAddr != "" {
		lis, err := net.Listen("tcp", o.httpAddr)
		if err != nil {
			return fmt.Errorf("hub listener: %w", err)
		}
		defer lis.Close()
		mux := reg.Mux()
		mux.Handle("/fleet", hub.StatusHandler())
		mux.Handle("/query", hub.Store().QueryHandler())
		go http.Serve(lis, mux)
		fmt.Printf("fleet hub on http://%s/fleet (telemetry /metrics, history /query)\n", lis.Addr())
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
	if err := hub.Store().Flush(); err != nil {
		return fmt.Errorf("flushing history store: %w", err)
	}
	return nil
}

// printJSON emits the machine-readable hub view — the same document
// StatusHandler serves — for scripting a one-shot health check.
func printJSON(w io.Writer, hub *health.Hub) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(hub.View(20, true))
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
	// When the scrape set includes a replicated control plane, surface who
	// leads and how settled leadership is next to the endpoint table.
	if roles := f.Select("lobster_replica_role", nil); len(roles) > 0 {
		leader := "none"
		for _, s := range roles {
			if s.Value == 2 { // gauge: 0 follower, 1 candidate, 2 leader
				leader = "node " + s.Label("node")
			}
		}
		term, elections := 0.0, 0.0
		for _, s := range f.Select("lobster_replica_term", nil) {
			if s.Value > term {
				term = s.Value
			}
		}
		for _, s := range f.Select("lobster_replica_elections_total", nil) {
			elections += s.Value
		}
		fmt.Printf("control plane: %d members, leader=%s term=%.0f elections=%.0f\n",
			len(roles), leader, term, elections)
	}
	if firing := hub.Firing(); len(firing) > 0 {
		fmt.Printf("firing: %s\n", strings.Join(firing, ", "))
	}
	agg := f.Aggregate()
	sort.Slice(agg, func(i, j int) bool { return agg[i].Name < agg[j].Name })
	at := tabulate.NewTable("aggregates", "SERIES", "TOTAL", "MAX", "N")
	for _, a := range agg {
		if !strings.HasPrefix(a.Name, "lobster_") {
			continue
		}
		at.Row(a.Name, fmt.Sprintf("%.6g", a.Total), fmt.Sprintf("%.6g", a.Max), fmt.Sprint(a.N))
	}
	fmt.Print(at.Render())
}
