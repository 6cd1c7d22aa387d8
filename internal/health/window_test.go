package health

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"lobster/internal/faultinject"
	"lobster/internal/monitor"
)

// counterPage renders a one-counter exposition page.
func counterPage(name string, v float64) []byte {
	return []byte(fmt.Sprintf("# TYPE %s counter\n%s %g\n", name, name, v))
}

// TestWindowedRateCounterResetHysteresis is the regression the windowed
// rules exist for: a counter that resets mid-window (its process
// restarted) must not wobble a firing rate rule through its hysteresis.
// The single-tick rate abstained on the reset tick, eating into the
// Clear budget; the windowed rate rides through because the
// counter-reset-safe increase still sees the surrounding climb.
func TestWindowedRateCounterResetHysteresis(t *testing.T) {
	src := &StaticSource{Text: counterPage("lobster_restarts_total", 0)}
	now := 0.0
	hub := NewHub(Config{
		Endpoints: []Endpoint{{Name: "m", Component: "master", Source: src}},
		Rules: NewRuleSet([]Rule{{
			Name:      "busy",
			Expr:      Expr{Metric: "lobster_restarts_total", Fn: "rate", Window: 30},
			Threshold: 0.5,
			For:       2,
			Clear:     3,
		}}),
		Clock: func() float64 { return now },
	})
	tick := func(v float64) []monitor.AlertRecord {
		now += 10
		src.Text = counterPage("lobster_restarts_total", v)
		return hub.Tick()
	}

	// Climb at 1/s: fires once For=2 window evaluations hold.
	tick(0)
	tick(10)
	got := tick(20)
	if len(got) != 1 || got[0].Rule != "busy" || !got[0].Firing() {
		t.Fatalf("want busy firing after climb, got %+v", got)
	}

	// Counter reset mid-window (process restart): 20 → 5, then the
	// climb continues. Window increase stays 15 over 20s = 0.75/s, so
	// the rule must hold — no resolve, no re-fire.
	if got := tick(5); len(got) != 0 {
		t.Fatalf("reset tick emitted %+v", got)
	}
	if got := tick(15); len(got) != 0 {
		t.Fatalf("post-reset tick emitted %+v", got)
	}
	if firing := hub.Firing(); len(firing) != 1 || firing[0] != "busy" {
		t.Fatalf("rule should still be firing across the reset, got %v", firing)
	}

	// Counter goes flat: Clear=3 quiet evaluations resolve it.
	var resolved []monitor.AlertRecord
	for i := 0; i < 5; i++ {
		resolved = append(resolved, tick(15)...)
	}
	if len(resolved) != 1 || resolved[0].State != "resolved" {
		t.Fatalf("want one resolved, got %+v", resolved)
	}
}

// TestWindowedStallSeesThroughRestart: stall measures from the last
// observed change of the value.
func TestWindowedStallSeesThroughRestart(t *testing.T) {
	src := &StaticSource{Text: counterPage("lobster_wq_tasks_done_total", 1)}
	now := 0.0
	hub := NewHub(Config{
		Endpoints: []Endpoint{{Name: "m", Component: "master", Source: src}},
		Rules: NewRuleSet([]Rule{{
			Name:      "stuck",
			Expr:      Expr{Metric: "lobster_wq_tasks_done_total", Fn: "stall"},
			Threshold: 25,
		}}),
		Clock: func() float64 { return now },
	})
	for i := 0; i < 3; i++ {
		now += 10
		if got := hub.Tick(); len(got) != 0 {
			t.Fatalf("tick %d emitted %+v", i, got)
		}
	}
	// t=40: flat since t=10 → stall = 30 > 25 → fires.
	now += 10
	got := hub.Tick()
	if len(got) != 1 || got[0].Rule != "stuck" || !got[0].Firing() {
		t.Fatalf("want stuck firing at t=40, got %+v", got)
	}
	if got[0].Value != 30 {
		t.Fatalf("stall value = %g, want 30 (measured from recorded history)", got[0].Value)
	}
}

// TestHubScrapeTimeout: a hung endpoint — a faultinject stall on its
// HTTP transport — must not stretch the tick past the scrape deadline,
// must count as a failed scrape, and must leave the healthy endpoint's
// fresh data intact.
func TestHubScrapeTimeout(t *testing.T) {
	fast := httptest.NewServer(pageHandler("# TYPE lobster_ok gauge\nlobster_ok 1\n"))
	defer fast.Close()
	slow := httptest.NewServer(pageHandler("# TYPE lobster_ok gauge\nlobster_ok 2\n"))
	defer slow.Close()

	// Stall every round trip to the slow endpoint for 30s — far past
	// the scrape deadline.
	inj := faultinject.New(&faultinject.Plan{Rules: []faultinject.Rule{
		{Component: "slow", Action: faultinject.ActDelay, DelayMS: 30000},
	}})
	stalled := make(chan time.Duration, 8)
	inj.SetSleep(func(d time.Duration) {
		stalled <- d
		// Park until the test ends; the hub must not wait for us.
		select {}
	})

	now := 0.0
	hub := NewHub(Config{
		Endpoints: []Endpoint{
			{Name: "fast", Component: "master", Source: &HTTPSource{BaseURL: fast.URL}},
			{Name: "slow", Component: "worker", Source: &HTTPSource{
				BaseURL: slow.URL,
				Client:  &http.Client{Transport: inj.Transport("slow", nil)},
			}},
		},
		Rules:         NewRuleSet(nil),
		Clock:         func() float64 { return now },
		ScrapeTimeout: 150 * time.Millisecond,
		DownAfter:     2,
	})

	for i := 1; i <= 2; i++ {
		now += 5
		start := time.Now()
		hub.Tick()
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("tick %d took %v, deadline not enforced", i, d)
		}
	}
	select {
	case <-stalled:
	default:
		t.Fatal("fault injector never stalled the slow endpoint")
	}

	f := hub.Fleet()
	var fastUp, slowUp bool
	var slowFails int
	for _, e := range f.Endpoints {
		switch e.Name {
		case "fast":
			fastUp = e.Up
		case "slow":
			slowUp = e.Up
			slowFails = e.Fails
		}
	}
	if !fastUp {
		t.Fatal("healthy endpoint marked down")
	}
	if slowUp || slowFails < 2 {
		t.Fatalf("hung endpoint should be down after 2 ticks, up=%v fails=%d", slowUp, slowFails)
	}
	// DownAfter=2 → the built-in endpoint_down alert fired.
	alerts := hub.Alerts()
	found := false
	for _, a := range alerts {
		if a.Rule == "endpoint_down" && a.Firing() {
			found = true
		}
	}
	if !found {
		t.Fatalf("no endpoint_down alert for the hung endpoint: %+v", alerts)
	}
	// The healthy endpoint's fresh value survived the hung peer.
	if sel := f.Select("lobster_ok", map[string]string{"component": "master", "instance": "fast"}); len(sel) != 1 || sel[0].Value != 1 {
		t.Fatalf("healthy endpoint's value in the fleet view: %v", sel)
	}
}

func pageHandler(page string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(page))
	})
}
