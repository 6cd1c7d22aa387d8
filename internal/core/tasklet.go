package core

import (
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
	per := cfg.EventsPerTasklet
	tasklets := make([]Tasklet, 0, (cfg.TotalEvents+per-1)/per)
	for first := 0; first < cfg.TotalEvents; first += per {
		id := len(tasklets)
		tasklets = append(tasklets, Tasklet{ID: id, NumEvents: min(per, cfg.TotalEvents-first), Seed: id + 1})
	}
	return tasklets, nil
}

// groupTasklets cuts the tasklet IDs ids into tasks of at most
// cfg.TaskletsPerTask. A task is one contiguous run: a group breaks
// wherever the next tasklet does not continue the previous one, by ID
// (so a group is the range its DB row names) and, for analysis, by file
// and by event (a task streams one event range of one file, so a lumi
// the mask drops between two selected ones must split them). The groups
// are sub-slices of ids.
func groupTasklets(cfg *Config, tasklets []Tasklet, ids []int) [][]int {
	groups := make([][]int, 0, (len(ids)+cfg.TaskletsPerTask-1)/cfg.TaskletsPerTask)
	start := 0
	for i := 1; i <= len(ids); i++ {
		if i < len(ids) && i-start < cfg.TaskletsPerTask && continues(cfg, &tasklets[ids[i-1]], &tasklets[ids[i]]) {
			continue
		}
		groups = append(groups, ids[start:i:i])
		start = i
	}
	return groups
}

// continues reports whether tasklet t picks up exactly where prev ends.
func continues(cfg *Config, prev, t *Tasklet) bool {
	return t.ID == prev.ID+1 &&
		(cfg.Kind != KindAnalysis || (t.LFN == prev.LFN && t.SkipEvents == prev.SkipEvents+prev.NumEvents))
}

// buildTask converts a tasklet group into a wq.Task for submission and
// returns the chirp path the task stages its output out to.
func buildTask(cfg *Config, tasklets []Tasklet, group []int, attempt int) (*wq.Task, string, error) {
	if len(group) == 0 {
		return nil, "", fmt.Errorf("core: empty task group")
	}
	first := tasklets[group[0]]
	args := &wrapper.Args{
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
	return &wq.Task{Func: funcName, Args: args, Tag: string(cfg.Kind)}, args.Output, nil
}
