package main

import (
	"bytes"
	"fmt"
	"math"

	"lobster/internal/trace"
)

// layerTotals are the traced rounds' raw sums, before they are divided into
// per-round metrics; workload checks read the same numbers.
type layerTotals struct {
	slotS float64 // slots x wall of the traced passes

	// wrapper segments and merge time, seconds of slot time.
	setup, conditions, stageIn, execute, stageOut, overhead, merge float64

	evictions int
	requeues  int
}

// spanTotals is what the span log says: self time by emitting component,
// the in-slot segment sum the closure check needs, time spent in dispatch
// attempts the master later declared lost, and time sibling spans overlapped.
type spanTotals struct {
	byComp  map[string]float64
	inSlot  float64
	lost    float64
	overlap float64
	spans   int
	orphans int
	coreRun float64 // benchmark-owned spans around New+Run
}

// inSlotSegments are the Fig 8 buckets that occupy a task slot; "submit"
// is queue wait at the master and is not one of them.
var inSlotSegments = []string{"dispatch", "stage_in", "setup", "execute", "stage_out", "merge", "overhead"}

// selfTime is n's duration minus the union of its children's intervals,
// clipped to n: the same definition trace.Analyze uses per segment, needed
// here per component. overlap is how much longer the clipped children are
// than their union, the time siblings ran concurrently (a merge task's
// parallel chirp fetches); self times count it once per sibling, a slot
// only once. BuildTrees leaves children sorted by start.
func selfTime(n *trace.Node) (self, overlap float64) {
	self, cursor := n.Dur(), n.Start
	for _, c := range n.Children {
		overlap += math.Max(0, math.Min(c.End, n.End)-math.Max(c.Start, n.Start))
		lo, hi := math.Max(c.Start, cursor), math.Min(c.End, n.End)
		if hi > lo {
			self -= hi - lo
			overlap -= hi - lo
			cursor = hi
		} else if c.End > cursor {
			cursor = c.End
		}
	}
	return math.Max(self, 0), overlap
}

// analyzeSpans reads the in-memory event log back the way lobster-trace
// reads a file: ReadRecords, BuildTrees, Analyze. Traces rooted before mark
// belong to the warm-up round and are left out.
func analyzeSpans(log []byte, mark float64) (spanTotals, error) {
	st := spanTotals{byComp: map[string]float64{}}
	recs, err := trace.ReadRecords(bytes.NewReader(log))
	if err != nil {
		return st, err
	}
	var taskTrees []*trace.Tree
	for _, t := range trace.BuildTrees(recs) {
		if t.Root.Start < mark {
			continue
		}
		st.spans += t.Spans
		st.orphans += t.Orphans
		if t.Root.Comp == "benchmark" {
			if t.Root.Name == "core.run" {
				st.coreRun += t.Root.Dur()
			}
			continue
		}
		taskTrees = append(taskTrees, t)
		// Under a dispatch attempt the master declared lost, everything is
		// lost work: the evicted task may outlive the attempt's own span.
		var walk func(n *trace.Node, lost bool)
		walk = func(n *trace.Node, lost bool) {
			lost = lost || n.Attrs["lost"] != ""
			self, overlap := selfTime(n)
			if n.Segment != "submit" { // queue wait at the master occupies no slot
				st.byComp[n.Comp] += self
			}
			if lost {
				st.lost += self
			} else {
				st.overlap += overlap
			}
			for _, c := range n.Children {
				walk(c, lost)
			}
		}
		walk(t.Root, false)
	}
	b := trace.Analyze(taskTrees)
	for _, seg := range inSlotSegments {
		st.inSlot += b.Seconds[seg]
	}
	return st, nil
}

// layerMetrics turns the traced rounds of one workload into the in-run
// per-layer metrics. Seconds, counts and bytes are per round; shares are
// of wq.slot_s. untracedWall is the median untraced round on the same
// host and process, the base of trace.overhead_frac.
func layerMetrics(b *bench, rounds []round, untracedWall float64, m *metrics) (*layerTotals, error) {
	if err := b.evlog.Flush(); err != nil {
		return nil, err
	}
	sp, err := analyzeSpans(b.spans.Bytes(), b.mark)
	if err != nil {
		return nil, err
	}
	lt := &layerTotals{}
	n := float64(len(rounds))

	var dispatch, ret, qwait, walls []float64
	var busy, slotTime, tail, events, bytesIn, bytesOut float64
	var attempts, retries, merges int
	for _, r := range rounds {
		walls = append(walls, r.wall())
		for _, p := range r {
			attempts += p.report.TasksRun
			retries += p.report.TasksFailed
			merges += p.report.MergesRun
			lastProc := 0.0
			for i := range p.records {
				t := &p.records[i]
				dispatch = append(dispatch, t.WQStageIn*1e3)
				ret = append(ret, t.WQStageOut*1e3)
				qwait = append(qwait, (t.Dispatch-t.Submit)*1e3)
				busy += t.Finish - t.Start
				slotTime += t.Return - t.Dispatch
				if t.Kind == "merge" {
					lt.merge += t.Finish - t.Start
					continue
				}
				lastProc = math.Max(lastProc, t.Return)
				cond := t.IOTime - t.StageIn
				lt.setup += t.SetupTime
				lt.conditions += cond
				lt.stageIn += t.StageIn
				lt.execute += t.CPUTime
				lt.stageOut += t.StageOut
				lt.overhead += t.Finish - t.Start - (t.SetupTime + cond + t.StageIn + t.CPUTime + t.StageOut)
				events += t.Metrics["events"]
				bytesIn += t.Metrics["bytes_in"]
				bytesOut += t.Metrics["bytes_out"]
			}
			// Record times count from core.New, which the pass timer wraps.
			tail += p.wall - lastProc
		}
	}
	lt.slotS = slots * sum(walls)
	// billed sums a counter's growth over the passes alone, per round: what
	// the oracle's read-back adds between passes is left out.
	billed := func(f func(*counters) float64) float64 {
		var t float64
		for _, r := range rounds {
			for _, p := range r {
				t += f(&p.after) - f(&p.before)
			}
		}
		return t / n
	}
	evictions := billed(func(c *counters) float64 { return float64(c.evicted) })
	requeues := billed(func(c *counters) float64 { return float64(c.master.Requeues) })
	lt.evictions, lt.requeues = int(math.Round(evictions*n)), int(math.Round(requeues*n))

	m.set("wq.dispatch_ms_p50", quantile(dispatch, 0.5))
	m.set("wq.dispatch_ms_p95", quantile(dispatch, 0.95))
	m.set("wq.return_ms_p50", quantile(ret, 0.5))
	m.set("wq.return_ms_p95", quantile(ret, 0.95))
	m.set("wq.queue_wait_ms_p50", quantile(qwait, 0.5))
	m.set("wq.dispatches", billed(func(c *counters) float64 { return float64(c.master.TasksDispatched) }))
	m.set("wq.requeues", requeues)
	m.set("wq.workers_lost", billed(func(c *counters) float64 { return float64(c.master.WorkersLost) }))
	m.set("wq.bytes_sent", billed(func(c *counters) float64 { return float64(c.master.BytesSent) }))
	m.set("wq.bytes_received", billed(func(c *counters) float64 { return float64(c.master.BytesReceived) }))
	m.set("wq.slot_s", lt.slotS/n)
	m.set("wq.slot_busy_share", busy/lt.slotS)
	m.set("wq.lost_s", sp.lost/n)
	m.set("wq.master_span_self_s", sp.byComp["master"]/n)
	m.set("wq.worker_span_self_s", sp.byComp["worker"]/n)

	m.set("wrapper.setup_s", lt.setup/n)
	m.set("wrapper.conditions_s", lt.conditions/n)
	m.set("wrapper.stage_in_s", lt.stageIn/n)
	m.set("wrapper.execute_s", lt.execute/n)
	m.set("wrapper.stage_out_s", lt.stageOut/n)
	m.set("wrapper.overhead_s", lt.overhead/n)

	m.set("core.run_s", sp.coreRun/n)
	m.set("core.merge_s", lt.merge/n)
	m.set("core.merge_tail_s", tail/n)
	m.set("core.merges", float64(merges)/n)
	m.set("core.task_attempts", float64(attempts)/n)
	m.set("core.retries", float64(retries)/n)

	m.set("xrootd.lookups", billed(func(c *counters) float64 { return float64(c.lookups) }))
	m.set("xrootd.bytes", billed(func(c *counters) float64 { return float64(c.xrdBytes) }))
	m.set("xrootd.span_self_s", sp.byComp["xrootd"]/n)

	m.set("chirp.requests", billed(func(c *counters) float64 { return float64(c.chirp.Requests) }))
	m.set("chirp.bytes_in", billed(func(c *counters) float64 { return float64(c.chirp.BytesIn) }))
	m.set("chirp.bytes_out", billed(func(c *counters) float64 { return float64(c.chirp.BytesOut) }))
	m.set("chirp.queue_wait_s", billed(func(c *counters) float64 { return c.chirp.QueueWaitSum.Seconds() }))
	m.set("chirp.span_self_s", sp.byComp["chirp"]/n)
	m.set("chirp.server_span_self_s", sp.byComp["chirp_server"]/n)

	m.set("squid.hits", billed(func(c *counters) float64 { return float64(c.proxy.Hits) }))
	m.set("squid.misses", billed(func(c *counters) float64 { return float64(c.proxy.Misses) }))
	m.set("squid.coalesced", billed(func(c *counters) float64 { return float64(c.proxy.Coalesced) }))
	m.set("squid.bytes_fetched", billed(func(c *counters) float64 { return float64(c.proxy.BytesFetched) }))
	m.set("squid.span_self_s", sp.byComp["squid"]/n)

	m.set("cluster.evictions", evictions)
	m.set("cluster.pilots_started", billed(func(c *counters) float64 { return float64(c.started) }))
	m.set("store.wal_bytes", billed(func(c *counters) float64 { return float64(c.wal) }))
	m.set("hepsim.events", events/n)
	m.set("hepsim.bytes_in", bytesIn/n)
	m.set("hepsim.bytes_out", bytesOut/n)

	// Two independent sources must tell the same story: the span log's
	// in-slot self time (less the dispatch attempts that were lost, which
	// the monitor never sees, and less what concurrent siblings counted
	// twice) against the monitor's Return - Dispatch.
	closure := math.Abs(sp.inSlot-sp.lost-sp.overlap-slotTime) / lt.slotS
	m.set("trace.spans", float64(sp.spans)/n)
	m.set("trace.orphans", float64(sp.orphans))
	m.set("trace.overlap_s", sp.overlap/n)
	m.set("trace.overhead_frac", median(walls)/untracedWall-1)
	m.set("trace.closure_err", closure)

	if sp.orphans != 0 {
		return lt, fmt.Errorf("trace.orphans = %d, want 0", sp.orphans)
	}
	if closure > 0.05 {
		return lt, fmt.Errorf("trace.closure_err = %.4f, want <= 0.05 (spans %.3f s in slot less %.3f s lost and %.3f s overlapped, monitor %.3f s)",
			closure, sp.inSlot, sp.lost, sp.overlap, slotTime)
	}
	return lt, nil
}
