package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

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

// TestJSONFlagRefused: -once -json and the JSON view it printed are gone
// (the hub's /metrics page is the one view), so a script that still asks
// for it fails, naming the flag, instead of parsing tables as JSON.
func TestJSONFlagRefused(t *testing.T) {
	if os.Getenv("LOBSTER_FLEET_JSON") != "" {
		os.Args = []string{"lobster-fleet", "-scrape", "m=http://127.0.0.1:1", "-once", "-json"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestJSONFlagRefused$")
	cmd.Env = append(os.Environ(), "LOBSTER_FLEET_JSON=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("lobster-fleet -once -json: err %v, want a non-zero exit:\n%s", err, out)
	}
	if !strings.Contains(string(out), "-json") {
		t.Errorf("the refusal does not name -json:\n%s", out)
	}
}
