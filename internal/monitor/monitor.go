// Package monitor implements Lobster's comprehensive monitoring system
// (paper §5): per-task records assembled from the instrumented wrapper
// reports and master-side timing, timeline and histogram views over them,
// the runtime decomposition of Figure 8, and the troubleshooting heuristics
// the paper lists (task size vs lost runtime, foremen vs sandbox stage-in,
// squid load vs setup time, chirp load vs stage-out time).
//
// Times are float64 seconds from the run origin so the same machinery serves
// the real execution plane (wall-clock) and the simulation plane (simulated
// clock).
package monitor

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
)

// TaskRecord is the monitoring record for one completed (or failed) task.
type TaskRecord struct {
	TaskID int64  `json:"task_id"`
	Kind   string `json:"kind"` // "analysis", "merge", "simulation", ...
	Worker string `json:"worker"`

	// Lifecycle timestamps, seconds from run origin.
	Submit   float64 `json:"submit"`
	Dispatch float64 `json:"dispatch"`
	Start    float64 `json:"start"`
	Finish   float64 `json:"finish"`
	Return   float64 `json:"return"`

	ExitCode      int    `json:"exit_code"`
	FailedSegment string `json:"failed_segment,omitempty"`
	Error         string `json:"error,omitempty"` // why the failed segment failed
	Requeues      int    `json:"requeues"`

	// Decomposed task time, seconds.
	CPUTime    float64 `json:"cpu_time"`    // pure computation
	IOTime     float64 `json:"io_time"`     // data access within the task
	SetupTime  float64 `json:"setup_time"`  // software environment setup
	StageIn    float64 `json:"stage_in"`    // task-level input staging
	StageOut   float64 `json:"stage_out"`   // task-level output staging
	WQStageIn  float64 `json:"wq_stage_in"` // master→worker transfer (sandbox)
	WQStageOut float64 `json:"wq_stage_out"`
	LostTime   float64 `json:"lost_time"` // runtime destroyed by eviction

	// Metrics are free-form task measurements (events, bytes_in, ...).
	// Read only: records of same-sized tasks may share one map.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Failed reports whether the record is a failure.
func (r *TaskRecord) Failed() bool { return r.ExitCode != 0 }

// WallTime is the task's start→finish duration.
func (r *TaskRecord) WallTime() float64 { return r.Finish - r.Start }

// AlertRecord is one typed health-plane alert transition: a rule
// crossing into "firing" or back to "resolved". The health hub emits these
// as "alert" events on the run's JSONL event log, beside its task records.
type AlertRecord struct {
	Time      float64 `json:"t"`
	Rule      string  `json:"rule"`
	Severity  string  `json:"severity,omitempty"`
	State     string  `json:"state"` // "firing" or "resolved"
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	Help      string  `json:"help,omitempty"`
	// Profile names the directory the process's profiles were written
	// into when a profiling rule fired.
	Profile string `json:"profile,omitempty"`
}

// A Monitor stores its records in blocks, and growth adds a block and
// copies no record: a record is 200 B, and re-copying them all each time
// one slice outgrew its capacity cost about 0.5 KB a task of a long run.
// The first block holds firstBlock records and each next one twice as
// many, so that a short workflow's monitor stays as small as a slice
// would, up to blocks of maxBlock records, so that no block outgrows what
// a long run needs next.
const (
	firstBlock  = 8
	maxBlock    = 128
	smallBlocks = 4                     // blocks before the first of maxBlock: 8, 16, 32, 64 records
	smallRecs   = maxBlock - firstBlock // the records those hold
)

// blockOf returns the block that holds record i and i's place in it.
func blockOf(i int) (block, off int) {
	if i < smallRecs {
		j := uint(i + firstBlock)
		top := bits.Len(j) - 1
		return top - bits.Len(firstBlock) + 1, int(j - 1<<top)
	}
	i -= smallRecs
	return smallBlocks + i/maxBlock, i % maxBlock
}

// Monitor accumulates task records. It is safe for concurrent use.
type Monitor struct {
	mu sync.RWMutex
	// blocks hold the records in arrival order (blockOf); n is how many
	// there are.
	blocks [][]TaskRecord
	n      int

	// byFinish caches record indices sorted by Finish so windowed queries
	// (Timeline, FailureCodes) can binary-search to their window instead of
	// scanning every record. sortGen is the record count the index was built
	// at; Add invalidates by simply growing records past it.
	byFinish []int
	sortGen  int
}

// New returns an empty monitor.
func New() *Monitor { return &Monitor{} }

// Add appends a record.
func (m *Monitor) Add(r TaskRecord) {
	m.mu.Lock()
	if b, _ := blockOf(m.n); b == len(m.blocks) {
		size := maxBlock
		if b < smallBlocks {
			size = firstBlock << b
		}
		m.blocks = append(m.blocks, make([]TaskRecord, size))
	}
	*m.record(m.n) = r
	m.n++
	m.mu.Unlock()
}

// record returns record i (i < m.n). Caller holds a lock.
func (m *Monitor) record(i int) *TaskRecord {
	b, off := blockOf(i)
	return &m.blocks[b][off]
}

// ensureIndexLocked brings the finish-sorted index up to date. Caller holds
// the write lock. Records usually arrive in roughly finish order (results
// stream back as tasks complete), so the common case appends the new tail
// without sorting; out-of-order arrivals trigger one stable re-sort.
func (m *Monitor) ensureIndexLocked() {
	n := m.n
	if m.sortGen == n {
		return
	}
	tail := len(m.byFinish)
	for i := tail; i < n; i++ {
		m.byFinish = append(m.byFinish, i)
	}
	sorted := true
	for i := tail; i < n; i++ {
		if i > 0 && m.record(m.byFinish[i-1]).Finish > m.record(m.byFinish[i]).Finish {
			sorted = false
			break
		}
	}
	if !sorted {
		// Stable so equal finish times keep arrival order, preserving the
		// accumulation order (and float summation) of the scan-based code.
		sort.SliceStable(m.byFinish, func(a, b int) bool {
			return m.record(m.byFinish[a]).Finish < m.record(m.byFinish[b]).Finish
		})
	}
	m.sortGen = n
}

// Records returns a copy of all records.
func (m *Monitor) Records() []TaskRecord {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.n == 0 {
		return nil
	}
	out := make([]TaskRecord, m.n)
	for i := range out {
		out[i] = *m.record(i)
	}
	return out
}

// Each calls fn for every record under the read lock.
func (m *Monitor) Each(fn func(*TaskRecord)) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for i := range m.n {
		fn(m.record(i))
	}
}

// --- Figure 8: runtime decomposition ---

// BreakdownRow is one row of the Figure 8 table.
type BreakdownRow struct {
	Phase    string
	Hours    float64
	Fraction float64 // of total
}

// Breakdown aggregates the decomposed task time across all records into the
// phases of Figure 8. Failed tasks contribute their whole wall time to the
// "Task Failed" phase, successful tasks contribute their per-phase split.
func (m *Monitor) Breakdown() []BreakdownRow {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var cpu, io, failed, wqIn, wqOut, lost float64
	for i := range m.n {
		r := m.record(i)
		lost += r.LostTime
		if r.Failed() {
			failed += r.WallTime()
			continue
		}
		cpu += r.CPUTime
		io += r.IOTime + r.SetupTime + r.StageIn + r.StageOut
		wqIn += r.WQStageIn
		wqOut += r.WQStageOut
	}
	failed += lost
	total := cpu + io + failed + wqIn + wqOut
	rows := []BreakdownRow{
		{Phase: "Task CPU Time", Hours: cpu / 3600},
		{Phase: "Task I/O Time", Hours: io / 3600},
		{Phase: "Task Failed", Hours: failed / 3600},
		{Phase: "WQ Stage In", Hours: wqIn / 3600},
		{Phase: "WQ Stage Out", Hours: wqOut / 3600},
	}
	if total > 0 {
		for i := range rows {
			rows[i].Fraction = rows[i].Hours * 3600 / total
		}
	}
	return rows
}

// --- Timelines (Figures 7, 10, 11) ---

// Timeline is the per-bin view of a run.
type Timeline struct {
	Bins      int
	BinWidth  float64
	Start     float64
	Running   []float64 // mean concurrent tasks per bin
	Completed []int     // tasks finished OK per bin
	FailedN   []int     // tasks finished failed per bin
	Eff       []float64 // CPU-time / wall-clock ratio per bin
	SetupMean []float64 // mean software-setup time of tasks finishing in bin
	StageOut  []float64 // mean stage-out time of tasks finishing in bin
}

// BinTime returns the start time of bin i.
func (t *Timeline) BinTime(i int) float64 { return t.Start + float64(i)*t.BinWidth }

// MakeTimeline bins the records over [start, end) with the given bin width.
func (m *Monitor) MakeTimeline(start, end, binWidth float64) (*Timeline, error) {
	if binWidth <= 0 || end <= start {
		return nil, fmt.Errorf("monitor: invalid timeline [%g,%g) width %g", start, end, binWidth)
	}
	nbins := int(math.Ceil((end - start) / binWidth))
	tl := &Timeline{
		Bins: nbins, BinWidth: binWidth, Start: start,
		Running: make([]float64, nbins), Completed: make([]int, nbins),
		FailedN: make([]int, nbins), Eff: make([]float64, nbins),
		SetupMean: make([]float64, nbins), StageOut: make([]float64, nbins),
	}
	return tl, nil
}

// Timeline computes the full per-bin view.
func (m *Monitor) Timeline(start, end, binWidth float64) (*Timeline, error) {
	tl, err := m.MakeTimeline(start, end, binWidth)
	if err != nil {
		return nil, err
	}
	nbins := tl.Bins
	cpuPerBin := make([]float64, nbins)
	wallPerBin := make([]float64, nbins)
	setupSum := make([]float64, nbins)
	setupN := make([]int, nbins)
	outSum := make([]float64, nbins)
	outN := make([]int, nbins)

	clampBin := func(t float64) int {
		i := int((t - start) / binWidth)
		if i < 0 {
			return 0
		}
		if i >= nbins {
			return nbins - 1
		}
		return i
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	m.ensureIndexLocked()
	// Prune the prefix of records that finished before the window opened;
	// for recent-window queries over a long run this skips nearly everything.
	first := sort.Search(len(m.byFinish), func(i int) bool {
		return m.record(m.byFinish[i]).Finish > start
	})
	for _, ri := range m.byFinish[first:] {
		r := m.record(ri)
		if r.Start >= end {
			continue
		}
		// Concurrency: spread the task's [Start, Finish) over bins.
		b0, b1 := clampBin(r.Start), clampBin(r.Finish)
		for b := b0; b <= b1; b++ {
			binLo := start + float64(b)*binWidth
			binHi := binLo + binWidth
			lo, hi := r.Start, r.Finish
			if lo < binLo {
				lo = binLo
			}
			if hi > binHi {
				hi = binHi
			}
			if hi <= lo {
				continue
			}
			overlap := hi - lo
			tl.Running[b] += overlap / binWidth
			wallPerBin[b] += overlap
			if !r.Failed() && r.WallTime() > 0 {
				// Attribute CPU time uniformly over the task's life.
				cpuPerBin[b] += r.CPUTime * overlap / r.WallTime()
			}
		}
		// Completion accounting at finish time; a finish exactly at the
		// window end clamps into the last bin.
		fb := clampBin(r.Finish)
		if r.Finish >= start && r.Finish <= end {
			if r.Failed() {
				tl.FailedN[fb]++
			} else {
				tl.Completed[fb]++
			}
			setupSum[fb] += r.SetupTime
			setupN[fb]++
			outSum[fb] += r.StageOut
			outN[fb]++
		}
	}
	for b := 0; b < nbins; b++ {
		if wallPerBin[b] > 0 {
			tl.Eff[b] = cpuPerBin[b] / wallPerBin[b]
		}
		if setupN[b] > 0 {
			tl.SetupMean[b] = setupSum[b] / float64(setupN[b])
		}
		if outN[b] > 0 {
			tl.StageOut[b] = outSum[b] / float64(outN[b])
		}
	}
	return tl, nil
}

// FailureCodes returns, per time bin, the exit codes of failed tasks — the
// bottom panel of Figure 11.
func (m *Monitor) FailureCodes(start, end, binWidth float64) (map[int][]int, error) {
	if binWidth <= 0 || end <= start {
		return nil, fmt.Errorf("monitor: invalid binning")
	}
	nbins := int(math.Ceil((end - start) / binWidth))
	out := make(map[int][]int)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ensureIndexLocked()
	// Binary-search the finish-sorted index to exactly the [start, end)
	// window instead of scanning every record.
	lo := sort.Search(len(m.byFinish), func(i int) bool {
		return m.record(m.byFinish[i]).Finish >= start
	})
	hi := sort.Search(len(m.byFinish), func(i int) bool {
		return m.record(m.byFinish[i]).Finish >= end
	})
	for _, ri := range m.byFinish[lo:hi] {
		r := m.record(ri)
		if !r.Failed() {
			continue
		}
		b := int((r.Finish - start) / binWidth)
		if b >= nbins {
			b = nbins - 1
		}
		out[b] = append(out[b], r.ExitCode)
	}
	for _, codes := range out {
		sort.Ints(codes)
	}
	return out, nil
}
