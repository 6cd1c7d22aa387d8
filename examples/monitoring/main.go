// Monitoring and troubleshooting walk-through (paper §5).
//
// The example runs the same small workflow twice: first against a healthy
// stack, then with a transient federation outage injected mid-run. It shows
// how the per-segment wrapper records surface the problem — failure codes
// attribute the failures to stage-in, the failed-time fraction jumps — and
// how the Lobster DB lets a crashed scheduler resume without re-running
// completed work. Finally it replays the structured JSONL event log into a
// fresh monitor, rebuilding the task-record database a crash would lose.
//
//	go run ./examples/monitoring
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"lobster/internal/core"
	"lobster/internal/deploy"
	"lobster/internal/hepsim"
	"lobster/internal/monitor"
	"lobster/internal/store"
	"lobster/internal/tabulate"
	"lobster/internal/telemetry"
	"lobster/internal/trace"
)

func main() {
	// Every task record is also appended to a JSONL event log; §3 below
	// replays it to rebuild the monitor DB after a simulated crash.
	logDir, err := os.MkdirTemp("", "lobster-events-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(logDir)
	logPath := filepath.Join(logDir, "events.jsonl")
	reg := telemetry.NewRegistry()
	evl, err := telemetry.OpenEventLog(logPath, reg.Now)
	if err != nil {
		log.Fatal(err)
	}

	stack, err := deploy.Start(deploy.Options{
		Files:          6,
		LumisPerFile:   2,
		EventsPerFile:  24,
		Workers:        2,
		CoresPerWorker: 2,
		Telemetry:      reg,
		EventLog:       evl,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer stack.Close()

	dbdir, err := os.MkdirTemp("", "lobster-db-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dbdir)
	db, err := store.Open(dbdir)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	stack.Services.DB = db

	cfg := core.Config{
		Name:            "troubleshoot",
		Kind:            core.KindAnalysis,
		Dataset:         stack.Dataset.Name,
		TaskletsPerTask: 1,
		EventSize:       stack.EventSize(),
		MaxTaskRetries:  2,
	}

	// --- Run 1: inject a federation outage for half the files. ---
	fmt.Println("== run 1: transient federation outage ==")
	origOpen := stack.Env.Open
	broken := map[string]bool{}
	for i, f := range stack.Dataset.Files {
		if i%2 == 0 {
			broken[f.LFN] = true
		}
	}
	stack.Env.Open = func(lfn string, tr *trace.Tracer, ctx trace.Context) (hepsim.RemoteFile, error) {
		if broken[lfn] {
			return nil, fmt.Errorf("xrootd: connection timed out (transient outage)")
		}
		return origOpen(lfn, tr, ctx)
	}

	l, err := core.New(cfg, stack.Services)
	if err != nil {
		log.Fatal(err)
	}
	l.SetResultTimeout(time.Minute)
	rep, err := l.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("outcome: %d done, %d failed tasklets\n\n", rep.TaskletsDone, rep.TaskletsFailed)

	// The wrapper's segmented failure codes attribute the problem.
	bySegment := map[string]int{}
	stack.Services.Monitor.Each(func(r *monitor.TaskRecord) {
		if r.Failed() {
			bySegment[r.FailedSegment]++
		}
	})
	tb := tabulate.NewTable("Failures by wrapper segment", "segment", "failed attempts")
	for seg, n := range bySegment {
		tb.Row(seg, n)
	}
	fmt.Println(tb.Render())

	bd := tabulate.NewTable("Runtime breakdown (note the Task Failed share)",
		"Task Phase", "Fraction (%)")
	for _, row := range stack.Services.Monitor.Breakdown() {
		bd.Row(row.Phase, fmt.Sprintf("%.1f", row.Fraction*100))
	}
	fmt.Println(bd.Render())

	// --- Run 2: the outage clears; a fresh Lobster resumes from the DB. ---
	fmt.Println("== run 2: outage over, scheduler restarted from the Lobster DB ==")
	stack.Env.Open = origOpen
	l2, err := core.New(cfg, stack.Services)
	if err != nil {
		log.Fatal(err)
	}
	l2.SetResultTimeout(time.Minute)
	rep2, err := l2.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered=%v: re-ran only the failed work (%d task attempts this run)\n",
		rep2.Recovered, rep2.TasksRun)
	fmt.Printf("final state: %d/%d tasklets done, %d failed\n",
		rep2.TaskletsDone, rep2.TaskletsTotal, rep2.TaskletsFailed)
	if !rep2.Succeeded() {
		log.Fatal("workflow did not complete after recovery")
	}

	// --- Run 3: the monitor DB itself is lost; replay the event log. ---
	// The Lobster DB recovers workflow *state* (what still needs running);
	// the event log recovers the monitor's *history* (every task record),
	// so breakdowns and diagnoses survive a scheduler crash too.
	fmt.Println("\n== run 3: monitor DB lost, rebuilt from the event log ==")
	if err := evl.Close(); err != nil {
		log.Fatal(err)
	}
	f, err := os.Open(logPath)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	rebuilt := monitor.New()
	n, err := rebuilt.ReplayLog(f)
	if err != nil {
		log.Fatal(err)
	}
	live := len(stack.Services.Monitor.Records())
	fmt.Printf("replayed %d task events from %s (live monitor holds %d)\n",
		n, filepath.Base(logPath), live)
	rb := tabulate.NewTable("Breakdown rebuilt from the log", "Task Phase", "Fraction (%)")
	for _, row := range rebuilt.Breakdown() {
		rb.Row(row.Phase, fmt.Sprintf("%.1f", row.Fraction*100))
	}
	fmt.Println(rb.Render())
	if n != live {
		log.Fatalf("replay mismatch: %d events vs %d live records", n, live)
	}
}
