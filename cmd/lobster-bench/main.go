// Command lobster-bench regenerates every table and figure of the paper's
// evaluation section in one run, at a configurable scale (1.0 reproduces
// the paper's 10k/20k-core runs; the default 0.25 finishes in seconds).
//
// Independent figures run concurrently across cores; output is buffered per
// figure and printed in paper order, so stdout is byte-identical to a
// sequential run regardless of scheduling.
//
// Usage:
//
//	lobster-bench            # all figures at scale 0.25
//	lobster-bench -scale 1   # full paper scale
//	lobster-bench -only fig10,fig11
//	lobster-bench -only adaptive   # static vs rate-adaptive task sizing under a regime shift
//	lobster-bench -dispatch -scale 1   # 100k workers / 1M tasks through one master
//	lobster-bench -cpuprofile cpu.pprof -memprofile mem.pprof -trace trace.out
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"lobster/internal/cluster"
	"lobster/internal/profiling"
	"lobster/internal/sim"
	"lobster/internal/stats"
	"lobster/internal/tabulate"
)

func main() {
	scale := flag.Float64("scale", 0.25, "scale of the big runs (1.0 = paper scale)")
	only := flag.String("only", "", "comma-separated figure list (fig2,...,fig11, adaptive); empty = every figure of the paper")
	jobs := flag.Int("jobs", runtime.GOMAXPROCS(0), "maximum figures generated concurrently")
	dispatch := flag.Bool("dispatch", false, "run the dispatch-plane scale harness (100k workers / 1M tasks at -scale 1) instead of the figures")
	var prof profiling.Flags
	prof.Register(flag.CommandLine)
	flag.Parse()

	want := map[string]bool{}
	if *only != "" {
		for _, f := range strings.Split(*only, ",") {
			want[strings.TrimSpace(f)] = true
		}
	}
	// The adaptive-sizing ablation is no figure of the paper: it runs only
	// when -only names it.
	sel := func(name string) bool { return len(want) == 0 && name != "adaptive" || want[name] }

	stop, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "lobster-bench:", err)
		os.Exit(1)
	}
	var runErr error
	if *dispatch {
		runErr = runDispatch(*scale)
	} else {
		runErr = run(*scale, sel, *jobs)
	}
	if err := stop(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "lobster-bench:", runErr)
		os.Exit(1)
	}
}

// figJob renders one figure (or one group sharing a model run) to a string.
type figJob struct {
	name   string
	render func() (string, error)
}

// runJobs executes jobs concurrently with at most workers in flight and
// prints the results in slice order, stopping at the first failed job.
func runJobs(jobs []figJob, workers int) error {
	outs := make([]string, len(jobs))
	errs := make([]error, len(jobs))
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers < 1 {
		workers = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				outs[i], errs[i] = jobs[i].render()
			}
		}()
	}
	wg.Wait()
	for i := range jobs {
		if errs[i] != nil {
			return fmt.Errorf("%s: %w", jobs[i].name, errs[i])
		}
		fmt.Print(outs[i])
	}
	return nil
}

func run(scale float64, sel func(string) bool, workers int) error {
	var sessions []cluster.Session
	var surv *stats.Empirical
	if sel("fig2") || sel("fig3") {
		var err error
		sessions, err = cluster.GenerateTrace(cluster.DefaultTraceConfig(), stats.NewRand(2))
		if err != nil {
			return err
		}
		surv, err = cluster.SurvivalDistribution(sessions)
		if err != nil {
			return err
		}
	}

	var jobs []figJob
	if sel("fig2") {
		jobs = append(jobs, figJob{"fig2", func() (string, error) {
			curve, err := cluster.EvictionCurve(sessions, 0, 24*3600, 24)
			if err != nil {
				return "", err
			}
			tb := tabulate.NewTable("\n== Figure 2: worker eviction probability ==",
				"availability", "P(evict)", "+-", "N")
			for _, p := range curve {
				tb.Row(tabulate.Duration(p.T), fmt.Sprintf("%.3f", p.P), fmt.Sprintf("%.3f", p.Err), p.N)
			}
			return tb.Render() + "\n", nil
		}})
	}

	if sel("fig3") {
		jobs = append(jobs, figJob{"fig3", func() (string, error) {
			cfg := sim.DefaultTaskSizeConfig()
			if scale < 1 {
				cfg.Tasklets = int(float64(cfg.Tasklets) * scale)
				cfg.Workers = int(float64(cfg.Workers) * scale)
			}
			results, err := sim.Figure3(cfg, surv, 10)
			if err != nil {
				return "", err
			}
			tb := tabulate.NewTable("\n== Figure 3: efficiency by task length ==",
				"scenario", "1h", "2h", "3h", "4h", "5h", "6h", "7h", "8h", "9h", "10h")
			for _, r := range results {
				row := []any{r.Scenario}
				for _, p := range r.Points {
					row = append(row, fmt.Sprintf("%.2f", p.Efficiency))
				}
				tb.Row(row...)
			}
			return tb.Render() + "\n", nil
		}})
	}

	if sel("fig4") {
		jobs = append(jobs, figJob{"fig4", func() (string, error) {
			results, err := sim.Figure4(sim.DefaultAccessConfig())
			if err != nil {
				return "", err
			}
			tb := tabulate.NewTable("\n== Figure 4: data access methods ==",
				"mode", "runtime", "processing", "overhead", "cpu-util", "makespan")
			for _, r := range results {
				tb.Row(r.Mode, tabulate.Duration(r.MeanRuntime), tabulate.Duration(r.MeanProcessing),
					tabulate.Duration(r.MeanOverhead), fmt.Sprintf("%.2f", r.CPUUtilization),
					tabulate.Duration(r.Makespan))
			}
			return tb.Render() + "\n", nil
		}})
	}

	if sel("fig5") {
		jobs = append(jobs, figJob{"fig5", func() (string, error) {
			res, err := sim.Figure5(sim.DefaultProxyConfig(), nil)
			if err != nil {
				return "", err
			}
			tb := tabulate.NewTable("\n== Figure 5: proxy cache scalability ==",
				"tasks/proxy", "cold", "hot")
			for i := range res.Cold {
				tb.Row(res.Cold[i].Tasks, tabulate.Duration(res.Cold[i].MeanOverhead),
					tabulate.Duration(res.Hot[i].MeanOverhead))
			}
			return tb.Render() + "\n" +
				fmt.Sprintf("cold-cache knee at ~%d tasks per proxy\n", sim.Knee(res.Cold, 0.1)), nil
		}})
	}

	if sel("fig7") {
		jobs = append(jobs, figJob{"fig7", func() (string, error) {
			results, err := sim.Figure7(sim.DefaultMergeSimConfig())
			if err != nil {
				return "", err
			}
			tb := tabulate.NewTable("\n== Figure 7: merging modes ==",
				"mode", "last analysis", "last merge", "merged files")
			for _, tl := range results {
				tb.Row(tl.Mode, tabulate.Duration(tl.LastAnalysis),
					tabulate.Duration(tl.LastMerge), tl.MergedFiles)
			}
			return tb.Render() + "\n", nil
		}})
	}

	if sel("fig8") || sel("fig9") || sel("fig10") {
		// One shared data-processing model run feeds figures 8-10.
		jobs = append(jobs, figJob{"fig8-10", func() (string, error) {
			var b strings.Builder
			fmt.Fprintf(&b, "\nrunning data-processing model at scale %.2f (%d cores)...\n",
				scale, sim.DataRunConfig(scale).Workers*8)
			res, err := sim.RunBig(sim.DataRunConfig(scale))
			if err != nil {
				return "", err
			}
			if sel("fig8") {
				tb := tabulate.NewTable("\n== Figure 8: data processing runtime ==",
					"Task Phase", "Time (h)", "Fraction (%)")
				for _, r := range sim.Figure8(res) {
					tb.Row(r.Phase, fmt.Sprintf("%.0f", r.Hours), fmt.Sprintf("%.1f", r.Fraction*100))
				}
				fmt.Fprintln(&b, tb.Render())
			}
			if sel("fig9") {
				top := sim.Figure9(res, 16*3600, 20*3600)
				labels := make([]string, len(top))
				values := make([]float64, len(top))
				for i, cv := range top {
					labels[i] = cv.Consumer
					values[i] = float64(cv.Bytes)
				}
				fmt.Fprintln(&b, "\n== Figure 9: XrootD volume, top consumers (4 h window) ==")
				fmt.Fprintln(&b, tabulate.Bars(labels, values, 40))
			}
			if sel("fig10") {
				d, err := sim.Figure10(res, 3600)
				if err != nil {
					return "", err
				}
				tb := tabulate.NewTable("\n== Figure 10: data processing timeline ==",
					"t", "running", "completed", "failed", "cpu/wall")
				for i := range d.Times {
					tb.Row(tabulate.Duration(d.Times[i]), fmt.Sprintf("%.0f", d.Running[i]),
						d.Completed[i], d.Failed[i], fmt.Sprintf("%.2f", d.Eff[i]))
				}
				fmt.Fprintln(&b, tb.Render())
			}
			return b.String(), nil
		}})
	}

	if sel("fig11") {
		jobs = append(jobs, figJob{"fig11", func() (string, error) {
			var b strings.Builder
			fmt.Fprintf(&b, "\nrunning simulation model at scale %.2f (%d cores)...\n",
				scale, sim.SimRunConfig(scale).Workers*8)
			res, err := sim.RunBig(sim.SimRunConfig(scale))
			if err != nil {
				return "", err
			}
			d, err := sim.Figure11(res, 1800)
			if err != nil {
				return "", err
			}
			tb := tabulate.NewTable("\n== Figure 11: simulation run timeline ==",
				"t", "running", "setup", "stage-out", "failures")
			for i := range d.Times {
				codes := ""
				for _, c := range d.SortedCodes() {
					if n := d.FailureCodes[i][c]; n > 0 {
						codes += fmt.Sprintf("%d:%d ", c, n)
					}
				}
				tb.Row(tabulate.Duration(d.Times[i]), fmt.Sprintf("%.0f", d.Running[i]),
					tabulate.Duration(d.SetupMean[i]), tabulate.Duration(d.StageOut[i]), codes)
			}
			fmt.Fprintln(&b, tb.Render())
			at, peak := d.PeakSetup()
			fmt.Fprintf(&b, "release-setup peak: %s at t=%s (paper: ~400 min at full scale)\n",
				tabulate.Duration(peak), tabulate.Duration(at))
			return b.String(), nil
		}})
	}

	if sel("adaptive") {
		jobs = append(jobs, figJob{"adaptive", func() (string, error) {
			results, err := sim.CompareAdaptive(sim.DefaultPhaseShiftConfig(), adaptiveStaticSize)
			if err != nil {
				return "", err
			}
			tb := tabulate.NewTable("Task sizing under a mid-run eviction regime shift (calm -> hostile)",
				"sizer", "efficiency", "evictions", "mean size", "final size")
			for _, r := range results {
				tb.Row(r.Sizer, fmt.Sprintf("%.3f", r.Efficiency), r.Evictions,
					fmt.Sprintf("%.1f", r.MeanSize), r.FinalSize)
			}
			return tb.Render() + "\n", nil
		}})
	}

	return runJobs(jobs, workers)
}

// adaptiveStaticSize is the tasklets per task of the adaptive ablation's
// static sizer, the baseline the rate-adaptive sizer is measured against.
const adaptiveStaticSize = 18
