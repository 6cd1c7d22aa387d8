package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"lobster/internal/health"
)

// TestOnceJSONGolden pins the exact machine-readable snapshot `-once
// -json` prints: a hub on a fixed clock scraping a fixed payload must
// serialize byte-identically, because scripts parse this.
func TestOnceJSONGolden(t *testing.T) {
	page := []byte("# TYPE lobster_wq_tasks_done_total counter\n" +
		"lobster_wq_tasks_done_total 42\n" +
		"# TYPE lobster_wq_tasks_running gauge\n" +
		"lobster_wq_tasks_running 7\n")
	now := 0.0
	hub := health.NewHub(health.Config{
		Endpoints: []health.Endpoint{
			{Name: "m-1", Component: "master", Source: &health.StaticSource{Text: page}},
		},
		Rules: health.NewRuleSet(nil),
		Clock: func() float64 { return now },
	})
	now = 5
	hub.Tick()

	var buf bytes.Buffer
	if err := printJSON(&buf, hub); err != nil {
		t.Fatal(err)
	}
	want := `{
  "t": 5,
  "ticks": 1,
  "endpoints": [
    {
      "name": "m-1",
      "component": "master",
      "up": true,
      "age_sec": 0,
      "series": 2,
      "fails": 0
    }
  ],
  "series": [
    {
      "Name": "lobster_wq_tasks_done_total",
      "Type": "counter",
      "Total": 42,
      "Max": 42,
      "N": 1,
      "PerComponent": {
        "master": 42
      }
    },
    {
      "Name": "lobster_wq_tasks_running",
      "Type": "gauge",
      "Total": 7,
      "Max": 7,
      "N": 1,
      "PerComponent": {
        "master": 7
      }
    }
  ]
}
`
	if got := buf.String(); got != want {
		t.Errorf("-once -json snapshot drifted:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestTsdbFlagRefused: the history store and its -tsdb flag are gone, so
// an old command line that still names a history directory must fail
// loudly, naming the flag, instead of scraping without its history.
func TestTsdbFlagRefused(t *testing.T) {
	if dir := os.Getenv("LOBSTER_FLEET_TSDB_DIR"); dir != "" {
		os.Args = []string{"lobster-fleet", "-tsdb", dir}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestTsdbFlagRefused$")
	cmd.Env = append(os.Environ(), "LOBSTER_FLEET_TSDB_DIR="+t.TempDir())
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("lobster-fleet -tsdb dir: err %v, want a non-zero exit:\n%s", err, out)
	}
	if !strings.Contains(string(out), "-tsdb") {
		t.Errorf("the refusal does not name -tsdb:\n%s", out)
	}
}
