// HA chaos: the replicated control plane under leader-kill storms. The
// invariants mirror the worker-kill storms one layer up: every submitted
// task reaches exactly-one replicated terminal success, outputs are
// byte-identical to a kill-free run, the final leader's dispatch/requeue
// accounting reconciles, and teardown strands no goroutines.
package faultinject_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"lobster/internal/deploy"
	"lobster/internal/faultinject"
	"lobster/internal/wq"
)

// haChaosRegistry computes a deterministic payload per task — the bytes a
// kill-free and a stormy run must agree on — slowly enough that a kill
// lands mid-dispatch.
func haChaosRegistry() wq.Registry {
	return wq.Registry{
		"payload": func(ctx *wq.ExecContext) error {
			time.Sleep(3 * time.Millisecond)
			var buf bytes.Buffer
			seed := ctx.Task.Args["seed"]
			for i := 0; i < 32; i++ {
				fmt.Fprintf(&buf, "%s:%d\n", seed, i*i)
			}
			ctx.SetOutput("out.bin", buf.Bytes())
			return nil
		},
	}
}

// runHAChaos runs tasks tasks through a 5-member control plane with 3
// workers, killing the leader each time the replicated done-count crosses
// a threshold in killAt. It returns the per-tag output bytes and the
// final leader's inner-master stats.
func runHAChaos(t *testing.T, tasks int, killAt []int, inj *faultinject.Injector) (map[string][]byte, wq.MasterStats, []*wq.HAMaster) {
	t.Helper()
	before := runtime.NumGoroutine()
	cluster, err := deploy.StartHA(deploy.HAOptions{
		Members: 5, Workers: 3, CoresPerWorker: 2,
		ScratchDir: t.TempDir(), Seed: 2027,
		Registry: haChaosRegistry(), Fault: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			cluster.Close()
		}
	}()
	if _, err := cluster.WaitLeader(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Submit from the test goroutine while the kill schedule runs against
	// the done-count, so each kill lands with work committed but unfinished.
	done := func() int {
		best := 0
		for _, h := range cluster.Live() {
			if n := h.DoneCount(); n > best {
				best = n
			}
		}
		return best
	}
	killIdx := 0
	for i := 0; i < tasks; i++ {
		if killIdx < len(killAt) && done() >= killAt[killIdx] {
			if _, err := cluster.KillLeader(10 * time.Second); err != nil {
				t.Fatalf("kill %d: %v", killIdx, err)
			}
			killIdx++
		}
		_, err := cluster.Submit(&wq.Task{
			Func: "payload", Tag: fmt.Sprintf("job-%d", i),
			Args:    map[string]string{"seed": fmt.Sprintf("s%d", i)},
			Outputs: []string{"out.bin"},
		}, 20*time.Second)
		if err != nil {
			t.Fatalf("submit job-%d: %v", i, err)
		}
	}
	for killIdx < len(killAt) {
		if done() >= killAt[killIdx] {
			if _, err := cluster.KillLeader(10 * time.Second); err != nil {
				t.Fatalf("kill %d: %v", killIdx, err)
			}
			killIdx++
			continue
		}
		time.Sleep(2 * time.Millisecond)
	}

	ldr, err := cluster.WaitLeader(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !ldr.WaitDone(tasks, 30*time.Second) {
		t.Fatalf("final leader finished %d/%d tasks", ldr.DoneCount(), tasks)
	}

	// Quiesce the final leader's queue before reading its counters.
	deadline := time.Now().Add(10 * time.Second)
	for {
		s := ldr.Stats()
		if s.TasksWaiting == 0 && s.TasksRunning == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("final leader's queue never came to rest: %+v", s)
		}
		time.Sleep(2 * time.Millisecond)
	}

	outputs := make(map[string][]byte)
	for _, r := range ldr.Results() {
		if r.Failed() {
			t.Fatalf("task %s failed terminally: exit=%d err=%s", r.Tag, r.ExitCode, r.Error)
		}
		if _, dup := outputs[r.Tag]; dup {
			t.Fatalf("task %s reached two terminal outcomes", r.Tag)
		}
		if len(r.Outputs) != 1 || r.Outputs[0].Name != "out.bin" {
			t.Fatalf("task %s outputs malformed: %v", r.Tag, r.Outputs)
		}
		outputs[r.Tag] = r.Outputs[0].Data
	}
	stats := ldr.Stats()
	survivors := cluster.Live()

	// Every survivor converges on the full outcome set and a warm task DB
	// before teardown.
	for _, h := range survivors {
		if !h.WaitDone(tasks, 10*time.Second) {
			t.Fatalf("member %d replicated %d/%d outcomes", h.ID(), h.DoneCount(), tasks)
		}
		if h.Monitor().Len() != tasks {
			t.Fatalf("member %d monitor holds %d records, want %d", h.ID(), h.Monitor().Len(), tasks)
		}
		if h.PendingCount() != 0 {
			t.Fatalf("member %d left %d tasks pending", h.ID(), h.PendingCount())
		}
	}

	cluster.Close()
	closed = true

	gdeadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before+8 {
			break
		}
		if time.Now().After(gdeadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before, %d after teardown\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
	return outputs, stats, survivors
}

// TestChaosHALeaderKillStorm kills the leader twice mid-dispatch (5
// members tolerate two deaths) with replica-transport read drops layered
// on top, and requires the storm run to be indistinguishable from a
// kill-free run at the task level.
func TestChaosHALeaderKillStorm(t *testing.T) {
	const tasks = 40
	baseline, _, _ := runHAChaos(t, tasks, nil, nil)

	inj := faultinject.New(&faultinject.Plan{
		Seed: 8,
		Rules: []faultinject.Rule{
			{Component: "replica", Op: "read", Action: faultinject.ActDrop, After: 40, Every: 90, Times: 4},
		},
	})
	storm, stats, survivors := runHAChaos(t, tasks, []int{5, 18}, inj)

	if len(survivors) != 3 {
		t.Fatalf("expected 3 survivors of 5 after two kills, got %d", len(survivors))
	}
	if inj.TotalFired() == 0 {
		t.Error("replica-transport storm never fired")
	}

	// Exactly-one terminal success per task, byte-identical to kill-free.
	if len(storm) != tasks || len(baseline) != tasks {
		t.Fatalf("task outcomes: storm %d, baseline %d, want %d", len(storm), len(baseline), tasks)
	}
	for tag, want := range baseline {
		got, ok := storm[tag]
		if !ok {
			t.Errorf("task %s missing under storm", tag)
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("task %s output differs under storm: %d bytes vs %d", tag, len(got), len(want))
		}
	}

	// The final leader's dispatch accounting reconciles after takeover:
	// every dispatch either completed or was requeued, nothing in limbo.
	if stats.TasksDispatched != stats.TasksDone+stats.Requeues {
		t.Errorf("dispatch accounting does not reconcile: dispatched=%d done=%d requeues=%d",
			stats.TasksDispatched, stats.TasksDone, stats.Requeues)
	}
	if stats.TasksWaiting != 0 || stats.TasksRunning != 0 {
		t.Errorf("final leader not at rest: %+v", stats)
	}
}
