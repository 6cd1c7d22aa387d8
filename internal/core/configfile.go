package core

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strconv"

	"lobster/internal/dbs"
)

// FileConfig is the JSON shape of a Lobster configuration file — the
// artifact the paper's user writes to "describe the input data sources and
// the analysis code which is to be run on each input data source".
//
// Example:
//
//	{
//	  "name": "ttbar-skim",
//	  "kind": "analysis",
//	  "dataset": "/TTJets/Run2015A/AOD",
//	  "tasklets_per_task": 6,
//	  "access_mode": "stream",
//	  "merge": {"mode": "interleaved", "target_bytes": 3500000000},
//	  "lumi_mask": {"250000": [[1, 200], [300, 450]]}
//	}
type FileConfig struct {
	Name             string `json:"name"`
	Kind             string `json:"kind"`
	Dataset          string `json:"dataset,omitempty"`
	TotalEvents      int    `json:"total_events,omitempty"`
	EventsPerTasklet int    `json:"events_per_tasklet,omitempty"`
	TaskletsPerTask  int    `json:"tasklets_per_task,omitempty"`
	TaskBuffer       int    `json:"task_buffer,omitempty"`
	MaxTaskRetries   int    `json:"max_task_retries,omitempty"`
	AccessMode       string `json:"access_mode,omitempty"`
	Merge            *struct {
		Mode          string  `json:"mode"`
		TargetBytes   int64   `json:"target_bytes,omitempty"`
		StartFraction float64 `json:"start_fraction,omitempty"`
	} `json:"merge,omitempty"`
	OutputDir string `json:"output_dir,omitempty"`
	EventSize int    `json:"event_size,omitempty"`
	Work      int    `json:"work,omitempty"`
	Pileup    string `json:"pileup,omitempty"`
	// LumiMask maps run number (as a JSON string key) to inclusive
	// [lo, hi] lumi ranges.
	LumiMask map[string][][2]int `json:"lumi_mask,omitempty"`
}

// ParseConfig decodes a configuration file's content into a Config. The
// result is validated by New as usual.
func ParseConfig(data []byte) (Config, error) {
	var fc FileConfig
	if err := json.Unmarshal(data, &fc); err != nil {
		return Config{}, fmt.Errorf("core: parsing config: %w", err)
	}
	cfg := Config{
		Name:             fc.Name,
		Kind:             Kind(fc.Kind),
		Dataset:          fc.Dataset,
		TotalEvents:      fc.TotalEvents,
		EventsPerTasklet: fc.EventsPerTasklet,
		TaskletsPerTask:  fc.TaskletsPerTask,
		TaskBuffer:       fc.TaskBuffer,
		MaxTaskRetries:   fc.MaxTaskRetries,
		AccessMode:       AccessMode(fc.AccessMode),
		OutputDir:        fc.OutputDir,
		EventSize:        fc.EventSize,
		Work:             fc.Work,
		PileupPath:       fc.Pileup,
	}
	if fc.Merge != nil {
		cfg.MergeMode = MergeMode(fc.Merge.Mode)
		cfg.MergeTargetBytes = fc.Merge.TargetBytes
		cfg.MergeStartFraction = fc.Merge.StartFraction
	}
	if len(fc.LumiMask) > 0 {
		mask := &dbs.LumiMask{Ranges: make(map[int][][2]int)}
		// Keys in order, so that an input with two bad keys is always
		// refused naming the same one.
		keys := make([]string, 0, len(fc.LumiMask))
		for k := range fc.LumiMask {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, runStr := range keys {
			ranges := fc.LumiMask[runStr]
			// Exactly a run number: "012" or "12 " would otherwise name
			// run 12 beside a "12" key, and which one won would be map
			// order.
			run, err := strconv.Atoi(runStr)
			if err != nil || run < 0 || strconv.Itoa(run) != runStr {
				return Config{}, fmt.Errorf("core: lumi mask run %q is not a run number", runStr)
			}
			for _, r := range ranges {
				if r[1] < r[0] {
					return Config{}, fmt.Errorf("core: lumi mask range [%d,%d] inverted for run %d",
						r[0], r[1], run)
				}
			}
			mask.Ranges[run] = ranges
		}
		cfg.LumiMask = mask
	}
	// Surface validation problems at parse time, with defaults resolved.
	if _, err := cfg.withDefaults(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// LoadConfig reads and parses a configuration file.
func LoadConfig(path string) (Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, fmt.Errorf("core: reading config: %w", err)
	}
	return ParseConfig(data)
}
