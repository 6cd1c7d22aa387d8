package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"lobster/internal/dbs"
)

func TestParseConfigFull(t *testing.T) {
	data := []byte(`{
		"name": "ttbar-skim",
		"kind": "analysis",
		"dataset": "/TTJets/Run2015A/AOD",
		"tasklets_per_task": 6,
		"task_buffer": 200,
		"access_mode": "stage",
		"merge": {"mode": "interleaved", "target_bytes": 3500000000, "start_fraction": 0.2},
		"output_dir": "/store/user/anna",
		"event_size": 4096,
		"lumi_mask": {"250000": [[1, 200], [300, 450]]}
	}`)
	cfg, err := ParseConfig(data)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Name != "ttbar-skim" || cfg.Kind != KindAnalysis {
		t.Errorf("identity: %+v", cfg)
	}
	if cfg.TaskletsPerTask != 6 || cfg.TaskBuffer != 200 {
		t.Errorf("sizing: %+v", cfg)
	}
	if cfg.AccessMode != AccessStage {
		t.Errorf("access = %s", cfg.AccessMode)
	}
	if cfg.MergeMode != MergeInterleaved || cfg.MergeTargetBytes != 3500000000 ||
		cfg.MergeStartFraction != 0.2 {
		t.Errorf("merge: %+v", cfg)
	}
	if cfg.OutputDir != "/store/user/anna" {
		t.Errorf("output dir = %s", cfg.OutputDir)
	}
	if !cfg.LumiMask.Contains(dbs.Lumi{Run: 250000, Lumi: 350}) {
		t.Error("mask rejects in-range lumi")
	}
	if cfg.LumiMask.Contains(dbs.Lumi{Run: 250000, Lumi: 250}) {
		t.Error("mask accepts out-of-range lumi")
	}
}

func TestParseConfigSimulation(t *testing.T) {
	cfg, err := ParseConfig([]byte(`{
		"name": "mc", "kind": "simulation",
		"total_events": 10000, "events_per_tasklet": 250,
		"pileup": "/pileup/minbias.root"
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Kind != KindSimulation || cfg.TotalEvents != 10000 ||
		cfg.EventsPerTasklet != 250 || cfg.PileupPath != "/pileup/minbias.root" {
		t.Errorf("cfg = %+v", cfg)
	}
}

func TestParseConfigRejectsBadInput(t *testing.T) {
	bad := []string{
		`not json`,
		`{"name": "x", "kind": "teleport"}`,
		`{"name": "x", "kind": "analysis"}`, // no dataset
		`{"name": "x", "kind": "analysis", "dataset": "/d", "merge": {"mode": "blend"}}`,
		`{"name": "x", "kind": "analysis", "dataset": "/d", "lumi_mask": {"abc": [[1,2]]}}`,
		`{"name": "x", "kind": "analysis", "dataset": "/d", "lumi_mask": {"1": [[5,2]]}}`,
	}
	for i, s := range bad {
		if _, err := ParseConfig([]byte(s)); err == nil {
			t.Errorf("config %d accepted: %s", i, s)
		}
	}
}

// TestLumiMaskRunKeyExact: a lumi_mask key is a run number written the
// one way strconv.Itoa writes it. Any other spelling is refused by name,
// so "012" cannot stand in for run 12 beside a "12" key, with map order
// picking which ranges run 12 keeps.
func TestLumiMaskRunKeyExact(t *testing.T) {
	const head = `{"name": "x", "kind": "analysis", "dataset": "/d", "lumi_mask": `
	for _, key := range []string{"012", "1e3", "12 ", " 12", "+12", "-1", "-0", "12abc", ""} {
		mask := `{"12": [[1,5]], ` + strconv.Quote(key) + `: [[7,9]]}`
		_, err := ParseConfig([]byte(head + mask + `}`))
		if err == nil {
			t.Errorf("lumi_mask %s accepted", mask)
		} else if want := strconv.Quote(key); !strings.Contains(err.Error(), want) {
			t.Errorf("lumi_mask %s refused without naming %s: %v", mask, want, err)
		}
	}
	cfg, err := ParseConfig([]byte(head + `{"12": [[1,5]], "0": [[2,2]]}}`))
	if err != nil {
		t.Fatal(err)
	}
	if want := map[int][][2]int{12: {{1, 5}}, 0: {{2, 2}}}; !reflect.DeepEqual(cfg.LumiMask.Ranges, want) {
		t.Errorf("mask = %v, want %v", cfg.LumiMask.Ranges, want)
	}
}

// FuzzParseConfig: ParseConfig is a function of its input (two parses
// agree, whatever map order the lumi mask's keys come out in), and every
// run an accepted mask holds prints back to the key it was read from.
func FuzzParseConfig(f *testing.F) {
	const head = `{"name": "x", "kind": "analysis", "dataset": "/d", "lumi_mask": `
	f.Add([]byte(head + `{"12":[[1,5]],"012":[[7,9]],"1e3":[[2,2]]}}`))
	f.Add([]byte(head + `{"250000": [[1, 200], [300, 450]]}}`))
	f.Add([]byte(head + `{"1": [[5,2]]}}`))
	f.Add([]byte(head + `{"-0": [[1,1]], "0": [[1,1]]}}`))
	f.Add([]byte(`{"name": "mc", "kind": "simulation", "total_events": 100, "events_per_tasklet": 10}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := ParseConfig(data)
		cfg2, err2 := ParseConfig(data)
		if !reflect.DeepEqual(cfg, cfg2) || fmt.Sprint(err) != fmt.Sprint(err2) {
			t.Fatalf("two parses of %q differ: %+v (%v) and %+v (%v)", data, cfg, err, cfg2, err2)
		}
		if err != nil || cfg.LumiMask == nil {
			return
		}
		var fc FileConfig
		if err := json.Unmarshal(data, &fc); err != nil {
			t.Fatalf("accepted %q, which does not decode: %v", data, err)
		}
		if len(cfg.LumiMask.Ranges) != len(fc.LumiMask) {
			t.Fatalf("%d mask keys became %d runs", len(fc.LumiMask), len(cfg.LumiMask.Ranges))
		}
		for run := range cfg.LumiMask.Ranges {
			if _, ok := fc.LumiMask[strconv.Itoa(run)]; !ok {
				t.Fatalf("run %d has no key %q in %q", run, strconv.Itoa(run), data)
			}
		}
	})
}

func TestLoadConfig(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wf.json")
	content := `{"name": "fromfile", "kind": "analysis", "dataset": "/D/S/T"}`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Name != "fromfile" || cfg.Dataset != "/D/S/T" {
		t.Errorf("cfg = %+v", cfg)
	}
	if _, err := LoadConfig(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file loaded")
	}
}

func TestParseConfigRoundTripThroughRun(t *testing.T) {
	// A parsed config must be directly runnable by New.
	ds := testDataset(2, 2, 8)
	svc := analysisServices(t, ds)
	cfg, err := ParseConfig([]byte(`{
		"name": "rt", "kind": "analysis", "dataset": "` + ds.Name + `",
		"tasklets_per_task": 2, "event_size": 256
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(cfg, svc); err != nil {
		t.Fatalf("parsed config rejected by New: %v", err)
	}
}
