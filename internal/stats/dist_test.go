package stats

import (
	"math"
	"testing"
)

func sampleMean(d Dist, n int, seed uint64) float64 {
	r := NewRand(seed)
	var s Summary
	for i := 0; i < n; i++ {
		s.Add(d.Sample(r))
	}
	return s.Mean()
}

func TestGaussianMoments(t *testing.T) {
	g := Gaussian{Mu: 10, Sigma: 5, Floor: math.Inf(-1)}
	r := NewRand(1)
	mean, sd := moments(100000, func() float64 { return g.Sample(r) })
	if math.Abs(mean-10) > 0.1 {
		t.Errorf("mean = %g, want ~10", mean)
	}
	if math.Abs(sd-5) > 0.1 {
		t.Errorf("stddev = %g, want ~5", sd)
	}
}

// moments draws n values and returns their mean and sample standard
// deviation.
func moments(n int, draw func() float64) (mean, sd float64) {
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = draw()
		mean += vs[i]
	}
	mean /= float64(n)
	for _, v := range vs {
		sd += (v - mean) * (v - mean)
	}
	return mean, math.Sqrt(sd / float64(n-1))
}

func TestGaussianFloor(t *testing.T) {
	g := Gaussian{Mu: 1, Sigma: 5, Floor: 0.5}
	r := NewRand(2)
	for i := 0; i < 10000; i++ {
		if v := g.Sample(r); v < 0.5 {
			t.Fatalf("sample %g below floor", v)
		}
	}
}

func TestExponentialMean(t *testing.T) {
	m := sampleMean(Exponential{MeanVal: 7}, 100000, 3)
	if math.Abs(m-7) > 0.15 {
		t.Errorf("mean = %g, want ~7", m)
	}
}

func TestWeibullMean(t *testing.T) {
	w := Weibull{K: 0.8, Lambda: 100}
	m := sampleMean(w, 200000, 4)
	if math.Abs(m-w.Mean())/w.Mean() > 0.03 {
		t.Errorf("sample mean = %g, analytic mean = %g", m, w.Mean())
	}
}

func TestWeibullHeavyTail(t *testing.T) {
	// Shape < 1 must produce more short-lived samples than exponential with
	// the same mean (decreasing hazard): P(X < mean/10) larger.
	w := Weibull{K: 0.6, Lambda: 100}
	e := Exponential{MeanVal: w.Mean()}
	r := NewRand(5)
	cut := w.Mean() / 10
	var wShort, eShort int
	for i := 0; i < 50000; i++ {
		if w.Sample(r) < cut {
			wShort++
		}
		if e.Sample(r) < cut {
			eShort++
		}
	}
	if wShort <= eShort {
		t.Errorf("weibull short fraction %d not above exponential %d", wShort, eShort)
	}
}

func TestEmpiricalRoundTrip(t *testing.T) {
	src := Gaussian{Mu: 50, Sigma: 10, Floor: math.Inf(-1)}
	r := NewRand(7)
	obs := make([]float64, 20000)
	for i := range obs {
		obs[i] = src.Sample(r)
	}
	emp := NewEmpirical(obs)
	if math.Abs(emp.Mean()-50) > 0.5 {
		t.Errorf("empirical mean = %g, want ~50", emp.Mean())
	}
	m := sampleMean(emp, 50000, 8)
	if math.Abs(m-50) > 0.5 {
		t.Errorf("resampled mean = %g, want ~50", m)
	}
}

func TestEmpiricalQuantileMonotonic(t *testing.T) {
	emp := NewEmpirical([]float64{5, 1, 3, 2, 4})
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.05 {
		v := emp.Quantile(q)
		if v < prev {
			t.Fatalf("quantile not monotonic at q=%g: %g < %g", q, v, prev)
		}
		prev = v
	}
	if emp.Quantile(0) != 1 || emp.Quantile(1) != 5 {
		t.Errorf("extreme quantiles wrong: %g, %g", emp.Quantile(0), emp.Quantile(1))
	}
}

func TestEmpiricalPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewEmpirical(nil) did not panic")
		}
	}()
	NewEmpirical(nil)
}

func TestLogNormalMean(t *testing.T) {
	l := LogNormal{Mu: 1, Sigma: 0.5}
	m := sampleMean(l, 200000, 9)
	if math.Abs(m-l.Mean())/l.Mean() > 0.02 {
		t.Errorf("sample mean = %g, analytic = %g", m, l.Mean())
	}
}

func TestBinomialCI(t *testing.T) {
	p, sigma, err := BinomialCI(25, 100)
	if err != nil {
		t.Fatal(err)
	}
	if p != 0.25 {
		t.Errorf("p = %g", p)
	}
	want := math.Sqrt(0.25 * 0.75 / 100)
	if math.Abs(sigma-want) > 1e-12 {
		t.Errorf("sigma = %g, want %g", sigma, want)
	}
	if _, _, err := BinomialCI(5, 0); err == nil {
		t.Error("n=0 accepted")
	}
	if _, _, err := BinomialCI(-1, 10); err == nil {
		t.Error("k=-1 accepted")
	}
	if _, _, err := BinomialCI(11, 10); err == nil {
		t.Error("k>n accepted")
	}
}

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.N != 8 || s.Min != 2 || s.Max != 9 {
		t.Fatalf("N=%d Min=%g Max=%g", s.N, s.Min, s.Max)
	}
	if s.Mean() != 5 {
		t.Errorf("mean = %g", s.Mean())
	}
}
