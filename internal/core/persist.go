package core

import (
	"fmt"

	"lobster/internal/store"
)

// Lobster DB layout: one table per workflow holding the finished task
// groups, plus a marker record describing the plan so recovery can detect
// mismatches.
//
//	wf:<name>:meta      "plan"      → {tasklets: N, kind}
//	wf:<name>:tasklets  <first id>  → {state, n}
//
// A tasklets row covers the contiguous range [first, first+n), one task
// group (groupTasklets cuts only contiguous ones), and is written once the
// group resolves; no row means pending, so the plan itself costs one row.
// A row without n covers its one tasklet: that is the per-tasklet layout
// earlier versions wrote, pending rows included, and it recovers through
// the same reader.
//
// The paper (footnote 1) relies on exactly this: "system state is quickly
// and automatically recovered if the scheduler node should crash and
// reboot."

type planMeta struct {
	Tasklets int    `json:"tasklets"`
	Kind     string `json:"kind"`
}

type taskletRow struct {
	State TaskletState `json:"state"`
	N     int          `json:"n,omitempty"`
}

func (l *Lobster) metaTable() string     { return "wf:" + l.cfg.Name + ":meta" }
func (l *Lobster) taskletsTable() string { return "wf:" + l.cfg.Name + ":tasklets" }

func taskletKey(id int) string { return fmt.Sprintf("%010d", id) }

// persistPlan writes the plan's marker record: every tasklet starts
// pending, which needs no row.
func (l *Lobster) persistPlan() error {
	return l.svc.DB.PutJSON(l.metaTable(), "plan", planMeta{
		Tasklets: len(l.tasklets), Kind: string(l.cfg.Kind),
	})
}

// persistTaskletStates records the state of one task group in one row.
func (l *Lobster) persistTaskletStates(group []int, s TaskletState) error {
	if l.svc.DB == nil {
		return nil
	}
	if err := l.svc.DB.PutJSON(l.taskletsTable(), taskletKey(group[0]), taskletRow{State: s, N: len(group)}); err != nil {
		return err
	}
	// Bound WAL growth over long runs.
	if l.svc.DB.WALSize() > 8<<20 {
		return l.svc.DB.Compact()
	}
	return nil
}

// loadState restores tasklet states from a previous incarnation. It reports
// whether prior state existed.
//
// It walks the plan from tasklet 0. A done row marks its range done and
// the walk resumes after it; n is clamped to the rest of the plan and
// read as 1 when absent or not positive. Any other row, or none, leaves
// its tasklet pending: a group in flight when the scheduler died is simply
// re-run, and a group that failed gets another chance. Done ranges never
// overlap (a done tasklet is never grouped again), so a row the walk
// steps over is an older one that the done range supersedes.
func (l *Lobster) loadState() (bool, error) {
	db := l.svc.DB
	var meta planMeta
	err := db.GetJSON(l.metaTable(), "plan", &meta)
	if err == store.ErrNotFound {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	if meta.Tasklets != len(l.tasklets) || meta.Kind != string(l.cfg.Kind) {
		return false, fmt.Errorf("core: Lobster DB holds a different plan for %q "+
			"(%d tasklets of kind %s, config now yields %d of kind %s); refusing to mix state",
			l.cfg.Name, meta.Tasklets, meta.Kind, len(l.tasklets), l.cfg.Kind)
	}
	for id := 0; id < len(l.tasklets); {
		var row taskletRow
		if err := db.GetJSON(l.taskletsTable(), taskletKey(id), &row); err != nil && err != store.ErrNotFound {
			return false, err
		}
		if row.State != StateDone {
			id++
			continue
		}
		n := min(max(row.N, 1), len(l.tasklets)-id)
		for end := id + n; id < end; id++ {
			l.state[id] = StateDone
		}
	}
	return true, nil
}
