// Package stats provides the deterministic random-number generation,
// probability distributions, histograms, and time-series utilities shared by
// every simulation and measurement component in this repository.
//
// All randomness flows through Rand, a PCG-XSL-RR 128/64 generator with an
// explicit seed, so that every experiment in the paper reproduction is exactly
// repeatable: the same seed always yields the same eviction trace, the same
// tasklet durations, and therefore the same figures.
package stats

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// Rand is a deterministic pseudo-random number generator implementing the
// PCG-XSL-RR 128/64 algorithm (O'Neill, 2014). The zero value is not usable;
// construct with NewRand. Rand is not safe for concurrent use; derive
// independent streams with Split for concurrent consumers.
type Rand struct {
	hi, lo uint64 // 128-bit state
	incHi  uint64 // stream selector (odd increment), high word
	incLo  uint64 // stream selector, low word
	// cached second normal variate for Box-Muller
	haveGauss bool
	gauss     float64
}

const (
	pcgMulHi = 2549297995355413924
	pcgMulLo = 4865540595714422341
)

// NewRand returns a generator seeded with seed on the default stream.
func NewRand(seed uint64) *Rand {
	return NewRandStream(seed, 0xda3e39cb94b95bdb)
}

// NewRandStream returns a generator seeded with seed on the given stream.
// Distinct streams with the same seed produce statistically independent
// sequences.
func NewRandStream(seed, stream uint64) *Rand {
	r := &Rand{incHi: stream, incLo: stream<<1 | 1}
	r.hi, r.lo = advance(0, 0, r.incHi, r.incLo)
	r.addSeed(seed)
	r.hi, r.lo = advance(r.hi, r.lo, r.incHi, r.incLo)
	return r
}

// Split derives a new independent generator from r. The derived stream is a
// deterministic function of r's current state, and advancing the child never
// perturbs the parent (beyond the single draw consumed here).
func (r *Rand) Split() *Rand {
	return NewRandStream(r.Uint64(), r.Uint64()|1)
}

func (r *Rand) addSeed(seed uint64) {
	var carry uint64
	r.lo, carry = bits.Add64(r.lo, seed, 0)
	r.hi += carry
}

// advance is one step of the 128-bit LCG: (hi,lo)*mul + inc mod 2^128.
func advance(hi, lo, incHi, incLo uint64) (uint64, uint64) {
	pHi, pLo := bits.Mul64(lo, pcgMulLo)
	pHi += hi*pcgMulLo + lo*pcgMulHi
	lo, carry := bits.Add64(pLo, incLo, 0)
	return pHi + incHi + carry, lo
}

// output is the XSL-RR output function: xor-fold the state, rotate right
// by its top six bits.
func output(hi, lo uint64) uint64 {
	return bits.RotateLeft64(hi^lo, -int(hi>>58))
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *Rand) Uint64() uint64 {
	r.hi, r.lo = advance(r.hi, r.lo, r.incHi, r.incLo)
	return output(r.hi, r.lo)
}

// Fill overwrites dst with the stream's next draws, each stored little
// endian, so the bytes are those of successive Uint64 calls; a tail
// shorter than 8 bytes takes the low bytes of one more draw. The state
// stays in registers for the whole buffer.
func (r *Rand) Fill(dst []byte) {
	hi, lo, incHi, incLo := r.hi, r.lo, r.incHi, r.incLo
	for ; len(dst) >= 8; dst = dst[8:] {
		hi, lo = advance(hi, lo, incHi, incLo)
		binary.LittleEndian.PutUint64(dst, output(hi, lo))
	}
	if len(dst) > 0 {
		hi, lo = advance(hi, lo, incHi, incLo)
		v := output(hi, lo)
		for j := range dst {
			dst[j] = byte(v >> (8 * j))
		}
	}
	r.hi, r.lo = hi, lo
}

// Float64 returns a uniform value in [0,1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal variate (Box-Muller, cached pair).
func (r *Rand) NormFloat64() float64 {
	if r.haveGauss {
		r.haveGauss = false
		return r.gauss
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.gauss = v * f
	r.haveGauss = true
	return u * f
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *Rand) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// SplitMixGamma is the golden-ratio increment a splitmix64 stream
// advances its state by between outputs.
const SplitMixGamma uint64 = 0x9E3779B97F4A7C15

// SplitMix64 is one output of the splitmix64 generator (Steele, Lea and
// Flood, 2014) whose state before the step is x: add SplitMixGamma, then
// avalanche. Used as a stateless mix it is full-period and independent
// of call order, so seeded jitter, fault gates and trace span IDs are
// pure functions of their key; a caller that wants the stream
// keeps its own state and advances it by SplitMixGamma per call.
func SplitMix64(x uint64) uint64 {
	x += SplitMixGamma
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}
