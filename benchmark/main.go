// Command benchmark measures Lobster end to end: four seeded workflows
// through the production assembly (deploy.Start, then core.New(...).Run()),
// with every end-to-end number taken with tracing off and a separate traced
// run that attributes slot time to the layers. See README.md.
//
// The driver's contract form runs one workload one way and ends with one
// JSON line:
//
//	bash benchmark/run.sh --workload small-tasks --seed 1 --seconds 12 --trace 0
//
// Without --workload every workload runs both ways, each in a process of
// its own; -out keeps the full report (per-round values, host facts) and the
// span logs, and -compare checks two reports against the bounds.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

const (
	// An untraced run sets the stack up at least minSetups times, and keeps
	// going until a sixth of --seconds has been spent or maxSetups reached;
	// setup_s is the median, so a 10 ms set-up is not decided by one slow start.
	minSetups = 5
	maxSetups = 30
	// minRounds keeps a median meaningful when --seconds is short.
	minRounds = 3
)

// result is one workload measured one way.
type result struct {
	Workload  string           `json:"workload"`
	Traced    bool             `json:"traced"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Rounds    int              `json:"rounds"`
	Metrics   map[string]value `json:"metrics"`
}

// report is what -out writes and -compare reads.
type report struct {
	Host    hostFacts `json:"host"`
	Seed    uint64    `json:"seed"`
	Seconds float64   `json:"seconds"`
	Claim   *string   `json:"claim"` // this benchmark defines names; it claims no gain
	Results []*result `json:"results"`
}

type hostFacts struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	CPU        string  `json:"cpu"`
	LoadAvg1   float64 `json:"loadavg_1m"`
}

func host() hostFacts {
	h := hostFacts{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: "unknown", CPU: "unknown",
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		fmt.Sscanf(string(data), "%f", &h.LoadAvg1)
	}
	return h
}

// measureRounds runs rounds until seconds of round wall time have been
// measured, and at least atLeast rounds.
func measureRounds(b *bench, seconds float64, atLeast int) ([]round, error) {
	var rounds []round
	for measured := 0.0; measured < seconds || len(rounds) < atLeast; {
		r, err := b.runRound()
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, r)
		measured += r.wall()
	}
	return rounds, nil
}

// runUntraced measures the end-to-end metrics: set-up (repeated, median),
// one discarded warm-up round that fills the parrot and squid caches and
// the connection pools, then timed rounds with tracer, telemetry and event
// log all nil.
func runUntraced(w *workload, seed uint64, seconds float64, dir string) (*result, error) {
	var (
		b      *bench
		setups []float64
	)
	for i := 0; i < minSetups || (i < maxSetups && sum(setups) < seconds/6); i++ {
		if b != nil {
			b.close()
			runtime.GC() // let the next stack reuse this one's heap, or peak RSS is luck
		}
		t0 := time.Now()
		var err error
		if b, err = setup(w, seed, filepath.Join(dir, fmt.Sprintf("setup-%d", i)), false); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer b.close()
	if _, err := b.runRound(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	rounds, err := measureRounds(b, seconds, minRounds)
	if err != nil {
		return nil, err
	}
	m := untracedMetrics(rounds, setups)
	if err := m.complete(); err != nil {
		return nil, err
	}
	res := &result{Workload: w.Name, Rounds: len(rounds), Metrics: m.Values}
	res.Attempted, res.Failed = tally(rounds)
	res.Correct = res.Failed == 0
	return res, nil
}

// runTraced measures the per-layer metrics: untraced rounds for the run.*
// metrics (and the base of trace.overhead_frac), then rounds on a second
// stack started with telemetry, the tracer sampling everything and an
// in-memory event log, then the probes on an idle stack, shrunk by probeDiv
// (1 outside the smoke test). It returns the span log too.
func runTraced(w *workload, seed uint64, seconds float64, dir string, probeDiv int) (*result, []byte, error) {
	base, err := setup(w, seed, filepath.Join(dir, "baseline"), false)
	if err != nil {
		return nil, nil, err
	}
	if _, err := base.runRound(); err != nil {
		base.close()
		return nil, nil, fmt.Errorf("baseline warm-up: %w", err)
	}
	baseRounds, err := measureRounds(base, seconds/2, 1)
	base.close()
	if err != nil {
		return nil, nil, err
	}
	runtime.GC()

	b, err := setup(w, seed, filepath.Join(dir, "traced"), true)
	if err != nil {
		return nil, nil, err
	}
	defer b.close()
	warmup, err := b.runRound()
	if err != nil {
		return nil, nil, fmt.Errorf("warm-up: %w", err)
	}
	b.mark = b.reg.Now()
	rounds, err := measureRounds(b, seconds/2, 1)
	if err != nil {
		return nil, nil, err
	}
	m := newMetrics(perLayer)
	untraced := untracedMetrics(baseRounds, nil)
	for _, d := range runMetrics {
		m.put(d.Name, untraced.Values[d.Name])
	}
	res := &result{Workload: w.Name, Traced: true, Rounds: len(rounds), Metrics: m.Values}
	res.Attempted, res.Failed = tally(append(append([]round{warmup}, baseRounds...), rounds...))
	totals, err := layerMetrics(b, rounds, untraced.Values["run.wall_s"].Value, m)
	if err != nil {
		return nil, nil, err
	}
	if w.Check != nil {
		if err := w.Check(totals); err != nil {
			return nil, nil, fmt.Errorf("%s no longer stresses what it claims: %w", w.Name, err)
		}
	}
	b.close()
	runtime.GC()

	if err := runProbes(m, b.tracer, seed, filepath.Join(dir, "probes"), probeDiv); err != nil {
		return nil, nil, err
	}
	if err := b.evlog.Flush(); err != nil {
		return nil, nil, err
	}
	if err := m.complete(); err != nil {
		return nil, nil, err
	}
	res.Correct = res.Failed == 0
	return res, b.spans.Bytes(), nil
}

// print lists every metric by name with its unit, then the one JSON object
// the driver reads: the end-to-end table for an untraced run, the per-layer
// table for a traced one.
func (r *result) print() {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("# %s trace=%v rounds=%d attempted=%d failed=%d\n", r.Workload, r.Traced, r.Rounds, r.Attempted, r.Failed)
	for _, name := range names {
		v := r.Metrics[name]
		base := ""
		if v.Base != "" {
			base = "  (" + v.Base + ")"
		}
		fmt.Printf("%-28s %14.4f %s%s\n", name, v.Value, v.Unit, base)
	}
	type wire struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool            `json:"correct"`
		Attempted int             `json:"attempted"`
		Failed    int             `json:"failed"`
		Metrics   map[string]wire `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]wire{}}
	table := endToEnd
	if r.Traced {
		table = perLayer
	}
	for _, d := range table {
		line.Metrics[d.Name] = wire{r.Metrics[d.Name].Value, d.Unit}
	}
	out, _ := json.Marshal(line) // plain data; cannot fail
	fmt.Println(string(out))
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all of them, both ways)")
		seed    = flag.Uint64("seed", 1, "seed of the generated inputs and the eviction schedule")
		seconds = flag.Float64("seconds", 12, "round wall time to measure per run")
		traceFl = flag.String("trace", "", "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run (default: both)")
		out     = flag.String("out", "", "write the full report to this JSON file, span logs next to it")
		workdir = flag.String("workdir", ".bench_build", "directory for everything the run writes")
		compare = flag.Bool("compare", false, "compare two reports: -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two report files"))
		}
		os.Exit(compareReports(flag.Arg(0), flag.Arg(1)))
	}
	if runtime.NumCPU() < slots {
		fatal(fmt.Errorf("%d CPU: the load shape is %d slots sharing %d cores with the servers", runtime.NumCPU(), slots, slots))
	}
	todo := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		todo = []*workload{w}
	}
	ways := []string{*traceFl}
	switch *traceFl {
	case "0", "1":
	case "":
		ways = []string{"0", "1"}
	default:
		fatal(fmt.Errorf("-trace is 0 or 1, not %q", *traceFl))
	}
	if len(todo) > 1 || len(ways) > 1 {
		// Each measurement gets a process of its own, as in the contract
		// form: peak RSS is a process-wide high-water mark, and a heap left
		// by one workload would be the next one's head start. The children
		// merge their results into the -out file.
		self, err := os.Executable()
		if err != nil {
			fatal(err)
		}
		if *out != "" {
			os.Remove(*out)
		}
		code := 0
		for _, w := range todo {
			for _, way := range ways {
				child := exec.Command(self, "-workload", w.Name, "-trace", way,
					"-seed", fmt.Sprint(*seed), "-seconds", fmt.Sprint(*seconds), "-workdir", *workdir, "-out", *out)
				child.Stdout, child.Stderr = os.Stdout, os.Stderr
				if err := child.Run(); err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s --trace %s: %v\n", w.Name, way, err)
					code = 1
				}
			}
		}
		os.Exit(code)
	}
	w, traced := todo[0], ways[0] == "1"

	// Everything written lands under one directory of the checkout,
	// including what library code puts in os.TempDir, and is removed.
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fatal(err)
	}
	abs, err := filepath.Abs(*workdir)
	if err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(abs, "run-")
	if err != nil {
		fatal(err)
	}
	os.Setenv("TMPDIR", dir)

	facts := host()
	if facts.LoadAvg1 > 0.5*float64(facts.NProc) {
		fmt.Fprintf(os.Stderr, "benchmark: warning: 1-min load average %.2f on %d CPUs; wall-clock numbers will be noisy\n",
			facts.LoadAvg1, facts.NProc)
	}
	var (
		res   *result
		spans []byte
	)
	if traced {
		res, spans, err = runTraced(w, *seed, *seconds, dir, 1)
	} else {
		res, err = runUntraced(w, *seed, *seconds, dir)
	}
	os.RemoveAll(dir)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", w.Name, err))
	}
	res.print()
	if *out != "" {
		if err := writeReport(*out, facts, *seed, *seconds, res, spans); err != nil {
			fatal(err)
		}
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// writeReport merges res into the report at path (a fresh one when the
// file does not exist), replacing an earlier result of the same workload
// measured the same way, and writes a traced run's span log next to it.
func writeReport(path string, facts hostFacts, seed uint64, seconds float64, res *result, spans []byte) error {
	rep, err := readReport(path)
	if errors.Is(err, os.ErrNotExist) {
		rep, err = &report{}, nil
	}
	if err != nil {
		return err
	}
	rep.Host, rep.Seed, rep.Seconds = facts, seed, seconds
	kept := rep.Results[:0]
	for _, old := range rep.Results {
		if old.Workload != res.Workload || old.Traced != res.Traced {
			kept = append(kept, old)
		}
	}
	rep.Results = append(kept, res)
	data, _ := json.MarshalIndent(rep, "", "  ") // plain data; cannot fail
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if res.Traced {
		return os.WriteFile(fmt.Sprintf("%s.trace-%s.jsonl", path, res.Workload), spans, 0o644)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
