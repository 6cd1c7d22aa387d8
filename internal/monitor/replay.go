package monitor

import (
	"encoding/json"
	"fmt"
	"io"

	"lobster/internal/telemetry"
)

// ReplayLog rebuilds the monitor's record database from a structured JSONL
// event log (the crash-recovery path: a restarted Lobster replays the log
// its predecessor emitted). Events with type "task" carry one TaskRecord
// each; "task_batch" events carry a slice of them (no run writes them any
// more; logs on disk may hold them); "alert" events carry one health-plane
// AlertRecord, collected into the alert history (and not counted);
// "election" events carry one control-plane ElectionRecord, collected
// into the leadership history (and not counted); other event types are
// skipped. Returns the number of task records replayed.
func (m *Monitor) ReplayLog(r io.Reader) (int, error) {
	n := 0
	err := telemetry.ReadEvents(r, m.replayEvent(&n))
	return n, err
}

// ReplayLogPath is ReplayLog for a log file on disk, replaying any
// rotated segments (<path>.000001, …) before the live file so a
// size-capped log restores the full task history in write order.
func (m *Monitor) ReplayLogPath(path string) (int, error) {
	n := 0
	err := telemetry.ReadEventsPath(path, m.replayEvent(&n))
	return n, err
}

func (m *Monitor) replayEvent(n *int) func(telemetry.Event) error {
	return func(ev telemetry.Event) error {
		switch ev.Type {
		case "task":
			var rec TaskRecord
			if err := json.Unmarshal(ev.Data, &rec); err != nil {
				return fmt.Errorf("monitor: replaying task event: %w", err)
			}
			m.Add(rec)
			*n++
		case "task_batch":
			var recs []TaskRecord
			if err := json.Unmarshal(ev.Data, &recs); err != nil {
				return fmt.Errorf("monitor: replaying task_batch event: %w", err)
			}
			for _, rec := range recs {
				m.Add(rec)
				*n++
			}
		case "alert":
			var a AlertRecord
			if err := json.Unmarshal(ev.Data, &a); err != nil {
				return fmt.Errorf("monitor: replaying alert event: %w", err)
			}
			if a.Time == 0 {
				a.Time = ev.Time
			}
			m.AddAlert(a)
		case "election":
			var e ElectionRecord
			if err := json.Unmarshal(ev.Data, &e); err != nil {
				return fmt.Errorf("monitor: replaying election event: %w", err)
			}
			if e.Time == 0 {
				e.Time = ev.Time
			}
			m.AddElection(e)
		}
		return nil
	}
}
