package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"lobster/internal/deploy"
	"lobster/internal/monitor"
	"lobster/internal/telemetry"
	"lobster/internal/wq"
)

// haDemo runs the replicated control plane end-to-end: a 3-member master
// fleet with real workers, a batch of tasks, a leader kill mid-run, and
// takeover by a standby — then replays a survivor's event log to show the
// leadership history is as replayable as the task history.
func haDemo(workers, cores int, seed uint64) error {
	scratch, err := os.MkdirTemp("", "lobster-ha-demo-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)

	reg := telemetry.NewRegistry()
	cluster, err := deploy.StartHA(deploy.HAOptions{
		Members: 3, Workers: workers, CoresPerWorker: cores,
		ScratchDir: scratch, Seed: seed,
		Registry: wq.Registry{
			"echo": func(ctx *wq.ExecContext) error {
				ctx.SetOutput("out.txt", []byte(ctx.Task.Args["text"]+"\n"))
				return nil
			},
		},
		Telemetry: reg,
		EventDir:  filepath.Join(scratch, "events"),
	})
	if err != nil {
		return err
	}
	defer cluster.Close()

	ldr, err := cluster.WaitLeader(10 * time.Second)
	if err != nil {
		return err
	}
	fmt.Printf("control plane up: 3 members, leader=node %d term=%d\n", ldr.ID(), ldr.Term())

	submit := func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			if _, err := cluster.Submit(&wq.Task{
				Func: "echo", Tag: fmt.Sprintf("job-%d", i),
				Args:    map[string]string{"text": fmt.Sprintf("payload-%d", i)},
				Outputs: []string{"out.txt"},
			}, 15*time.Second); err != nil {
				return fmt.Errorf("submit job-%d: %w", i, err)
			}
		}
		return nil
	}
	const pre, post = 8, 4
	if err := submit(0, pre); err != nil {
		return err
	}
	if !ldr.WaitDone(pre, 30*time.Second) {
		return fmt.Errorf("leader finished %d/%d tasks", ldr.DoneCount(), pre)
	}
	fmt.Printf("ran %d tasks on node %d; killing it\n", pre, ldr.ID())

	if _, err := cluster.KillLeader(10 * time.Second); err != nil {
		return err
	}
	next, err := cluster.WaitLeader(10 * time.Second)
	if err != nil {
		return err
	}
	fmt.Printf("takeover: node %d leads term %d with a warm task DB of %d records\n",
		next.ID(), next.Term(), next.Monitor().Len())

	if err := submit(pre, pre+post); err != nil {
		return err
	}
	if !next.WaitDone(pre+post, 30*time.Second) {
		return fmt.Errorf("post-failover leader finished %d/%d tasks", next.DoneCount(), pre+post)
	}
	failed := 0
	for _, r := range next.Results() {
		if r.Failed() {
			failed++
		}
	}
	fmt.Printf("done: %d/%d tasks exactly-once across the failover, %d failed\n",
		next.DoneCount(), pre+post, failed)

	// The survivor's event log IS the replicated history: replay it cold.
	cluster.Close()
	m := monitor.New()
	n, err := m.ReplayLogPath(filepath.Join(scratch, "events",
		fmt.Sprintf("member-%d.jsonl", next.ID())))
	if err != nil {
		return fmt.Errorf("replaying survivor log: %w", err)
	}
	fmt.Printf("replayed survivor's log: %d task records, %d leadership transitions\n",
		n, len(m.Elections()))
	for _, e := range m.Elections() {
		if e.Role == "leader" {
			fmt.Printf("  t=%7.3fs node %d won term %d\n", e.Time, e.Node, e.Term)
		}
	}
	if n != pre+post {
		return fmt.Errorf("replay recovered %d records, want %d", n, pre+post)
	}
	return nil
}
