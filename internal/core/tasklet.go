package core

import (
	"encoding/json"
	"fmt"

	"lobster/internal/dbs"
	"lobster/internal/wq"
	"lobster/internal/wrapper"
)

// Tasklet is the smallest self-contained unit of work (paper §4.1): for
// analysis, one lumisection of one file; for simulation, one block of
// events. The complete tasklet list is created at the start of the workflow.
type Tasklet struct {
	ID int `json:"id"`
	// Analysis fields.
	LFN        string `json:"lfn,omitempty"`
	Run        int    `json:"run,omitempty"`
	Lumi       int    `json:"lumi,omitempty"`
	SkipEvents int    `json:"skip_events,omitempty"`
	NumEvents  int    `json:"num_events"`
	// Simulation fields.
	Seed int `json:"seed,omitempty"`
}

// TaskletState tracks a tasklet through the workflow.
type TaskletState string

// Tasklet states persisted in the Lobster DB.
const (
	StatePending TaskletState = "pending"
	StateRunning TaskletState = "running"
	StateDone    TaskletState = "done"
	StateFailed  TaskletState = "failed" // retries exhausted
)

// planTasklets builds the full tasklet list for the workflow.
func planTasklets(cfg *Config, svc *Services) ([]Tasklet, error) {
	switch cfg.Kind {
	case KindAnalysis:
		return planAnalysisTasklets(cfg, svc)
	case KindSimulation:
		return planSimulationTasklets(cfg)
	default:
		return nil, fmt.Errorf("core: unknown kind %q", cfg.Kind)
	}
}

// planAnalysisTasklets queries DBS: one tasklet per selected lumisection,
// with the file's events divided evenly across its lumis.
func planAnalysisTasklets(cfg *Config, svc *Services) ([]Tasklet, error) {
	ds, err := svc.DBS.Dataset(cfg.Dataset)
	if err != nil {
		return nil, err
	}
	var tasklets []Tasklet
	id := 0
	for fi := range ds.Files {
		f := &ds.Files[fi]
		if len(f.Lumis) == 0 {
			continue
		}
		perLumi := f.Events / len(f.Lumis)
		if perLumi == 0 {
			perLumi = 1
		}
		selected := cfg.LumiMask.Apply(f)
		for _, l := range selected {
			// Position of this lumi within the file decides the event range.
			pos := lumiIndex(f, l)
			n := perLumi
			if pos == len(f.Lumis)-1 {
				// Last lumi absorbs the remainder.
				n = f.Events - perLumi*(len(f.Lumis)-1)
			}
			tasklets = append(tasklets, Tasklet{
				ID: id, LFN: f.LFN, Run: l.Run, Lumi: l.Lumi,
				SkipEvents: pos * perLumi, NumEvents: n,
			})
			id++
		}
	}
	if len(tasklets) == 0 {
		return nil, fmt.Errorf("core: dataset %s yields no tasklets (empty or fully masked)", cfg.Dataset)
	}
	return tasklets, nil
}

func lumiIndex(f *dbs.File, l dbs.Lumi) int {
	for i, fl := range f.Lumis {
		if fl == l {
			return i
		}
	}
	return 0
}

// planSimulationTasklets divides TotalEvents into blocks.
func planSimulationTasklets(cfg *Config) ([]Tasklet, error) {
	var tasklets []Tasklet
	remaining := cfg.TotalEvents
	id := 0
	for remaining > 0 {
		n := cfg.EventsPerTasklet
		if n > remaining {
			n = remaining
		}
		tasklets = append(tasklets, Tasklet{ID: id, NumEvents: n, Seed: id + 1})
		remaining -= n
		id++
	}
	return tasklets, nil
}

// taskPlan is one task: a group of tasklets bound for a single worker core.
type taskPlan struct {
	Attempt  int   `json:"attempt"`
	Tasklets []int `json:"tasklets"` // tasklet IDs
}

// groupTasklets forms tasks of cfg.TaskletsPerTask tasklets. Analysis tasks
// never span files (a task streams from one input file); grouping restarts
// at file boundaries. Contiguity is preserved so a task covers one event
// range per file.
func groupTasklets(cfg *Config, tasklets []Tasklet) [][]int {
	var groups [][]int
	var cur []int
	var curLFN string
	flush := func() {
		if len(cur) > 0 {
			groups = append(groups, cur)
			cur = nil
		}
	}
	for _, t := range tasklets {
		if len(cur) >= cfg.TaskletsPerTask || (cfg.Kind == KindAnalysis && t.LFN != curLFN) {
			flush()
		}
		curLFN = t.LFN
		cur = append(cur, t.ID)
	}
	flush()
	return groups
}

// buildTask converts a tasklet group into a wq.Task for submission and
// returns the chirp path the task stages its output out to.
func buildTask(cfg *Config, tasklets []Tasklet, group []int, attempt int) (*wq.Task, string, error) {
	if len(group) == 0 {
		return nil, "", fmt.Errorf("core: empty task group")
	}
	first := tasklets[group[0]]
	args := wrapper.Args{
		EventSize: cfg.EventSize,
		Work:      cfg.Work,
		Output:    fmt.Sprintf("%s/%s_t%d_a%d.root", cfg.OutputDir, cfg.Name, group[0], attempt),
	}
	var funcName string
	switch cfg.Kind {
	case KindAnalysis:
		funcName = analysisFunc
		for _, id := range group {
			t := tasklets[id]
			if t.LFN != first.LFN {
				return nil, "", fmt.Errorf("core: task group spans files %s and %s", first.LFN, t.LFN)
			}
			args.MaxEvents += t.NumEvents
		}
		args.LFN, args.Mode, args.Run, args.SkipEvents = first.LFN, string(cfg.AccessMode), first.Run, first.SkipEvents
	case KindSimulation:
		funcName = simulationFunc
		for _, id := range group {
			args.Events += tasklets[id].NumEvents
		}
		args.Seed, args.Pileup = first.Seed, cfg.PileupPath
	}
	raw, err := json.Marshal(&args)
	if err != nil {
		return nil, "", err
	}
	return &wq.Task{
		Func:    funcName,
		Args:    raw,
		Outputs: []string{wrapper.ReportFile},
		Tag:     string(cfg.Kind),
	}, args.Output, nil
}
