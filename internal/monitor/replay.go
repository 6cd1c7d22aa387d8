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
// more; logs on disk may hold them); other event types, the health
// plane's "alert" events among them, are skipped. Returns the number of
// task records replayed.
func (m *Monitor) ReplayLog(r io.Reader) (int, error) {
	n := 0
	err := telemetry.ReadEvents(r, m.replayEvent(&n))
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
		}
		return nil
	}
}
