package stats

import (
	"fmt"
	"math"
	"sort"
)

// Dist is a one-dimensional probability distribution from which variates can
// be drawn using a caller-supplied generator.
type Dist interface {
	// Sample draws one variate.
	Sample(r *Rand) float64
	// Mean returns the distribution mean.
	Mean() float64
}

// Gaussian is a normal distribution N(Mu, Sigma²), optionally truncated below
// at Floor (the paper draws task durations from N(10 min, 5 min) which must
// not go negative).
type Gaussian struct {
	Mu, Sigma float64
	Floor     float64 // resampled (clamped) lower bound; use math.Inf(-1) to disable
}

// Sample draws a variate, clamping at Floor.
func (g Gaussian) Sample(r *Rand) float64 {
	v := g.Mu + g.Sigma*r.NormFloat64()
	if v < g.Floor {
		return g.Floor
	}
	return v
}

// Mean returns Mu (the clamp's effect on the mean is negligible for the
// parameter ranges used here and is deliberately ignored).
func (g Gaussian) Mean() float64 { return g.Mu }

// Exponential is an exponential distribution with the given Mean.
type Exponential struct{ MeanVal float64 }

// Sample draws an exponential variate.
func (e Exponential) Sample(r *Rand) float64 { return e.MeanVal * r.ExpFloat64() }

// Mean returns the distribution mean.
func (e Exponential) Mean() float64 { return e.MeanVal }

// Weibull is a Weibull distribution with shape K and scale Lambda. Shape
// K < 1 yields the heavy-tailed availability times observed for opportunistic
// workers: many short lives, a long tail of stable ones.
type Weibull struct {
	K, Lambda float64
}

// Sample draws a Weibull variate by inversion.
func (w Weibull) Sample(r *Rand) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return w.Lambda * math.Pow(-math.Log(u), 1/w.K)
}

// Mean returns Lambda * Gamma(1 + 1/K).
func (w Weibull) Mean() float64 { return w.Lambda * math.Gamma(1+1/w.K) }

// Empirical is a distribution defined by observed samples; Sample draws from
// the empirical CDF with linear interpolation between order statistics. This
// is how the paper's "probability derived from observation" eviction scenario
// is driven: worker availability logs become an Empirical distribution.
type Empirical struct {
	sorted []float64
	mean   float64
}

// NewEmpirical builds an empirical distribution from samples. It panics if
// samples is empty.
func NewEmpirical(samples []float64) *Empirical {
	if len(samples) == 0 {
		panic("stats: empirical distribution needs at least one sample")
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	var sum float64
	for _, v := range s {
		sum += v
	}
	return &Empirical{sorted: s, mean: sum / float64(len(s))}
}

// Sample draws from the empirical CDF with interpolation.
func (e *Empirical) Sample(r *Rand) float64 {
	n := len(e.sorted)
	if n == 1 {
		return e.sorted[0]
	}
	u := r.Float64() * float64(n-1)
	i := int(u)
	if i >= n-1 {
		return e.sorted[n-1]
	}
	frac := u - float64(i)
	return e.sorted[i] + frac*(e.sorted[i+1]-e.sorted[i])
}

// Mean returns the sample mean.
func (e *Empirical) Mean() float64 { return e.mean }

// Quantile returns the q-th empirical quantile, q in [0,1].
func (e *Empirical) Quantile(q float64) float64 {
	if q <= 0 {
		return e.sorted[0]
	}
	if q >= 1 {
		return e.sorted[len(e.sorted)-1]
	}
	pos := q * float64(len(e.sorted)-1)
	i := int(pos)
	frac := pos - float64(i)
	return e.sorted[i] + frac*(e.sorted[i+1]-e.sorted[i])
}

// LogNormal is a log-normal distribution parameterised by the mean Mu and
// standard deviation Sigma of the underlying normal.
type LogNormal struct{ Mu, Sigma float64 }

// Sample draws a log-normal variate.
func (l LogNormal) Sample(r *Rand) float64 {
	return math.Exp(l.Mu + l.Sigma*r.NormFloat64())
}

// Mean returns exp(Mu + Sigma²/2).
func (l LogNormal) Mean() float64 { return math.Exp(l.Mu + l.Sigma*l.Sigma/2) }

// BinomialCI returns the estimate p̂ = k/n together with the symmetric
// binomial standard error sqrt(p(1-p)/n), matching the "uncertainties are
// estimated using the binomial model" caption of Figure 2.
func BinomialCI(k, n int) (p, sigma float64, err error) {
	if n <= 0 {
		return 0, 0, fmt.Errorf("stats: binomial CI with n=%d", n)
	}
	if k < 0 || k > n {
		return 0, 0, fmt.Errorf("stats: binomial CI with k=%d out of [0,%d]", k, n)
	}
	p = float64(k) / float64(n)
	sigma = math.Sqrt(p * (1 - p) / float64(n))
	return p, sigma, nil
}

// Summary holds the count, extremes and running mean of a sequence of
// observations.
type Summary struct {
	N        int
	Min, Max float64
	mean     float64
}

// Add records one observation (the mean updated as Welford's algorithm
// does).
func (s *Summary) Add(v float64) {
	if s.N == 0 {
		s.Min, s.Max = v, v
	} else {
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.N++
	d := v - s.mean
	s.mean += d / float64(s.N)
}

// Mean returns the running mean (0 for an empty summary).
func (s *Summary) Mean() float64 { return s.mean }
