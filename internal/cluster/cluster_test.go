package cluster

import (
	"math"
	"testing"
	"time"

	"lobster/internal/stats"
	"lobster/internal/wq"
)

func TestGenerateTraceBasics(t *testing.T) {
	cfg := DefaultTraceConfig()
	cfg.Runs = 5
	cfg.WorkersPerRun = 200
	rng := stats.NewRand(1)
	sessions, err := GenerateTrace(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(sessions) == 0 || len(sessions) > 1000 {
		t.Fatalf("sessions = %d", len(sessions))
	}
	for _, s := range sessions {
		if s.Duration <= 0 {
			t.Fatalf("non-positive session duration %g", s.Duration)
		}
	}
	st := Summarize(sessions)
	if st.Evictions == 0 || st.Evictions == st.Sessions {
		t.Errorf("degenerate trace: %+v", st)
	}
	if st.EvictionRate <= 0 || st.EvictionRate >= 1 {
		t.Errorf("eviction rate = %g", st.EvictionRate)
	}
}

func TestGenerateTraceDeterministic(t *testing.T) {
	cfg := DefaultTraceConfig()
	cfg.Runs = 3
	cfg.WorkersPerRun = 50
	a, _ := GenerateTrace(cfg, stats.NewRand(7))
	b, _ := GenerateTrace(cfg, stats.NewRand(7))
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("session %d differs", i)
		}
	}
}

func TestGenerateTraceValidation(t *testing.T) {
	rng := stats.NewRand(1)
	if _, err := GenerateTrace(TraceConfig{}, rng); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := GenerateTrace(TraceConfig{Runs: 1, WorkersPerRun: 1}, rng); err == nil {
		t.Error("config without distributions accepted")
	}
}

func TestEvictionCurveShape(t *testing.T) {
	cfg := DefaultTraceConfig()
	rng := stats.NewRand(2)
	sessions, err := GenerateTrace(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	curve, err := EvictionCurve(sessions, 0, 24*3600, 24)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 24 {
		t.Fatalf("curve bins = %d", len(curve))
	}
	// Probabilities are valid and carry binomial errors where populated.
	for _, p := range curve {
		if p.P < 0 || p.P > 1 {
			t.Fatalf("P = %g", p.P)
		}
		if p.N > 1 && p.P > 0 && p.P < 1 && p.Err == 0 {
			t.Errorf("missing uncertainty at T=%g", p.T)
		}
	}
	// The opportunistic-pool signature: early availability bins have a
	// higher eviction probability than late bins.
	if !HazardIsDecreasing(curve, 30) {
		t.Error("eviction probability does not decrease with availability time")
	}
}

func TestEvictionCurveValidation(t *testing.T) {
	if _, err := EvictionCurve(nil, 0, 10, 0); err == nil {
		t.Error("zero bins accepted")
	}
	if _, err := EvictionCurve(nil, 10, 5, 4); err == nil {
		t.Error("inverted range accepted")
	}
}

func TestSurvivalDistribution(t *testing.T) {
	cfg := DefaultTraceConfig()
	cfg.Runs = 10
	sessions, _ := GenerateTrace(cfg, stats.NewRand(3))
	dist, err := SurvivalDistribution(sessions)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, s := range sessions {
		sum += s.Duration
	}
	if mean := sum / float64(len(sessions)); math.Abs(dist.Mean()-mean) > 1e-9*mean {
		t.Errorf("distribution mean %g, sessions' mean %g", dist.Mean(), mean)
	}
	// Heavy tail: median well below mean.
	if !(dist.Quantile(0.5) < dist.Mean()) {
		t.Errorf("median %g not below mean %g", dist.Quantile(0.5), dist.Mean())
	}
	if _, err := SurvivalDistribution(nil); err == nil {
		t.Error("empty trace accepted")
	}
}

func TestSummarizeMedian(t *testing.T) {
	sessions := []Session{
		{Duration: 1, Evicted: true},
		{Duration: 2, Evicted: true},
		{Duration: 30, Evicted: true},
		{Duration: 100, Evicted: false},
	}
	st := Summarize(sessions)
	if st.Evictions != 3 || st.MedianLife != 2 {
		t.Errorf("summary = %+v", st)
	}
	if math.Abs(st.MeanLife-11) > 1e-9 {
		t.Errorf("mean life = %g", st.MeanLife)
	}
}

func TestHazardIsDecreasing(t *testing.T) {
	dec := []CurvePoint{{P: 0.9, N: 100}, {P: 0.5, N: 100}, {P: 0.2, N: 100}}
	inc := []CurvePoint{{P: 0.1, N: 100}, {P: 0.5, N: 100}, {P: 0.9, N: 100}}
	if !HazardIsDecreasing(dec, 10) || HazardIsDecreasing(inc, 10) {
		t.Error("hazard direction detection broken")
	}
	sparse := []CurvePoint{{P: 0.9, N: 1}, {P: 0.1, N: 1}}
	if HazardIsDecreasing(sparse, 10) {
		t.Error("sparse bins not ignored")
	}
}

func TestPoolRunsTasksUnderEviction(t *testing.T) {
	master, err := wq.NewMaster("127.0.0.1:0", nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()

	reg := wq.Registry{
		"spin": func(ctx *wq.ExecContext) error {
			time.Sleep(30 * time.Millisecond)
			return nil
		},
	}
	pool, err := NewPool(PoolConfig{
		MasterAddr:     master.Addr(),
		Workers:        4,
		CoresPerWorker: 2,
		Registry:       reg,
		// Aggressive real-time eviction so the test exercises requeue.
		Lifetime:   stats.Gaussian{Mu: 0.25, Sigma: 0.075, Floor: 0.1},
		Replace:    true,
		ScratchDir: t.TempDir(),
	}, stats.NewRand(4))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Stop()

	const n = 40
	for i := 0; i < n; i++ {
		master.Submit(&wq.Task{Func: "spin"})
	}
	results := master.Drain(n, 60*time.Second)
	if len(results) != n {
		t.Fatalf("completed %d/%d tasks under eviction", len(results), n)
	}
	ok := 0
	for _, r := range results {
		if !r.Failed() {
			ok++
		}
	}
	// Retries may exhaust for an unlucky task, but the vast majority must
	// complete despite constant eviction.
	if ok < n*9/10 {
		t.Errorf("only %d/%d tasks succeeded", ok, n)
	}
	if pool.Evictions() == 0 {
		t.Error("no evictions occurred; test not exercising preemption")
	}
	if pool.Started() <= 4 {
		t.Error("evicted workers were not replaced")
	}
}

func TestPoolStopTerminates(t *testing.T) {
	master, err := wq.NewMaster("127.0.0.1:0", nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	pool, err := NewPool(PoolConfig{
		MasterAddr: master.Addr(),
		Workers:    2,
		Registry:   wq.Registry{},
		Lifetime:   stats.Gaussian{Mu: 3600}, // would fire in an hour
		ScratchDir: t.TempDir(),
	}, stats.NewRand(5))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		pool.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop blocked on pending eviction timers")
	}
	pool.mu.Lock()
	alive := len(pool.workers)
	pool.mu.Unlock()
	if alive != 0 {
		t.Errorf("workers alive after stop: %d", alive)
	}
}
