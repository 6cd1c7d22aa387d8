// Package core implements Lobster itself: the per-user workload management
// system of the paper. Given a dataset (or a simulation request), Lobster
//
//   - decomposes the workflow into tasklets, the smallest self-contained
//     units of work (lumisections for analysis, event blocks for simulation),
//   - groups tasklets into tasks of a tunable size — the knob the Figure 3
//     study optimises against eviction — keeping a buffer of tasks submitted
//     to the Work Queue master,
//   - persistently records the tasklet→task mapping in the Lobster DB so a
//     crashed scheduler recovers automatically,
//   - retries work lost to eviction or failure,
//   - merges the many small task outputs into publication-sized files in one
//     of three modes (sequential, Hadoop, interleaved — Figure 7), and
//   - feeds every task's instrumented wrapper report into the monitoring
//     system (§5).
package core

import (
	"fmt"

	"lobster/internal/dbs"
	"lobster/internal/hdfs"
	"lobster/internal/monitor"
	"lobster/internal/store"
	"lobster/internal/telemetry"
	"lobster/internal/wq"
)

// AccessMode selects how analysis tasks reach their input data.
type AccessMode string

// Data access modes (paper §4.2).
const (
	// AccessStream streams input over the federation while processing
	// (XrootD); the paper's default and Figure 4's winner.
	AccessStream AccessMode = "stream"
	// AccessStage pulls whole inputs before processing (WQ/Chirp-style).
	AccessStage AccessMode = "stage"
)

// MergeMode selects the output-merging strategy (paper §4.4, Figure 7).
type MergeMode string

// Merge modes.
const (
	MergeNone        MergeMode = "none"
	MergeSequential  MergeMode = "sequential"
	MergeHadoop      MergeMode = "hadoop"
	MergeInterleaved MergeMode = "interleaved"
)

// Kind selects the workflow type.
type Kind string

// Workflow kinds.
const (
	KindAnalysis   Kind = "analysis"
	KindSimulation Kind = "simulation"
)

// Config describes one Lobster workflow, the content of the user's
// configuration file in the paper's architecture.
type Config struct {
	// Name labels the workflow; it prefixes output files.
	Name string
	// Kind is analysis (dataset-driven) or simulation (generator-driven).
	Kind Kind

	// Dataset is the DBS dataset to process (analysis only).
	Dataset string
	// LumiMask optionally restricts the lumisections processed.
	LumiMask *dbs.LumiMask

	// TotalEvents is the number of events to generate (simulation only).
	TotalEvents int
	// EventsPerTasklet sets the simulation tasklet granularity.
	EventsPerTasklet int

	// TaskletsPerTask is the task size: how many tasklets one task carries.
	// This is the quantity the Figure 3 study tunes.
	TaskletsPerTask int
	// TaskBuffer is the number of tasks kept submitted-but-unfinished; the
	// paper maintains a buffer of 400.
	TaskBuffer int
	// MaxTaskRetries bounds resubmission of failed tasks.
	MaxTaskRetries int

	// AccessMode picks streaming or staging for analysis input.
	AccessMode AccessMode

	// MergeMode and MergeTargetBytes control output merging: files of
	// 10–100 MB are typically merged into 3–4 GB in production; tests use
	// smaller targets.
	MergeMode        MergeMode
	MergeTargetBytes int64
	// MergeStartFraction is the processed fraction after which interleaved
	// merging may begin (paper: 10%).
	MergeStartFraction float64

	// OutputDir is the storage-element directory task outputs land in.
	OutputDir string

	// EventSize / Work configure the synthetic application kernel.
	EventSize int
	Work      int

	// PileupPath is the storage-element path of the pile-up sample
	// (simulation only; empty disables overlay).
	PileupPath string
}

// Executor names in the worker registry.
const (
	analysisFunc   = "analysis"
	simulationFunc = "simulation"
	mergeFunc      = "merge"
)

// withDefaults validates and fills defaults.
func (c Config) withDefaults() (Config, error) {
	if c.Name == "" {
		return c, fmt.Errorf("core: config needs a Name")
	}
	switch c.Kind {
	case KindAnalysis:
		if c.Dataset == "" {
			return c, fmt.Errorf("core: analysis workflow needs a Dataset")
		}
	case KindSimulation:
		if c.TotalEvents <= 0 {
			return c, fmt.Errorf("core: simulation workflow needs TotalEvents > 0")
		}
		if c.EventsPerTasklet <= 0 {
			c.EventsPerTasklet = 100
		}
	default:
		return c, fmt.Errorf("core: unknown workflow kind %q", c.Kind)
	}
	if c.TaskletsPerTask <= 0 {
		c.TaskletsPerTask = 1
	}
	if c.TaskBuffer <= 0 {
		c.TaskBuffer = 400
	}
	if c.MaxTaskRetries <= 0 {
		c.MaxTaskRetries = 3
	}
	if c.AccessMode == "" {
		c.AccessMode = AccessStream
	}
	if c.AccessMode != AccessStream && c.AccessMode != AccessStage {
		return c, fmt.Errorf("core: unknown access mode %q", c.AccessMode)
	}
	if c.MergeMode == "" {
		c.MergeMode = MergeNone
	}
	switch c.MergeMode {
	case MergeNone, MergeSequential, MergeHadoop, MergeInterleaved:
	default:
		return c, fmt.Errorf("core: unknown merge mode %q", c.MergeMode)
	}
	if c.MergeMode != MergeNone && c.MergeTargetBytes <= 0 {
		return c, fmt.Errorf("core: merge mode %s needs MergeTargetBytes", c.MergeMode)
	}
	if c.MergeStartFraction <= 0 {
		c.MergeStartFraction = 0.10
	}
	if c.OutputDir == "" {
		c.OutputDir = "/store/user/" + c.Name
	}
	if c.EventSize <= 0 {
		c.EventSize = 100 << 10
	}
	if c.Work <= 0 {
		c.Work = 1
	}
	return c, nil
}

// Services are the master-side handles Lobster drives.
type Services struct {
	// DBS resolves datasets (analysis workflows).
	DBS *dbs.Service
	// Master is the Work Queue master tasks are submitted to.
	Master *wq.Master
	// DB is the Lobster DB for persistent state; nil disables persistence.
	DB *store.DB
	// Monitor collects task records; nil disables monitoring.
	Monitor *monitor.Monitor
	// HDFS is the storage cluster behind the Chirp storage element; needed
	// for MergeHadoop, optional otherwise.
	HDFS *hdfs.Cluster
	// Telemetry receives live metric series and task-lifecycle spans; nil
	// disables instrumentation at zero cost.
	Telemetry *telemetry.Registry
	// EventLog receives one structured "task" event per completed task
	// record, replayable by monitor.ReplayLog; nil disables event logging.
	EventLog *telemetry.EventLog
}

func (s *Services) check(cfg *Config) error {
	if s.Master == nil {
		return fmt.Errorf("core: services need a Master")
	}
	if cfg.Kind == KindAnalysis && s.DBS == nil {
		return fmt.Errorf("core: analysis workflow needs a DBS service")
	}
	if cfg.MergeMode == MergeHadoop && s.HDFS == nil {
		return fmt.Errorf("core: hadoop merging needs an HDFS cluster")
	}
	return nil
}
