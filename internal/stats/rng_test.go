package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRandDeterminism(t *testing.T) {
	a := NewRand(42)
	b := NewRand(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("draw %d: %d != %d", i, av, bv)
		}
	}
}

func TestRandSeedsDiffer(t *testing.T) {
	a := NewRand(1)
	b := NewRand(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical draws", same)
	}
}

func TestRandStreamsDiffer(t *testing.T) {
	a := NewRandStream(7, 1)
	b := NewRandStream(7, 2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams 1 and 2 produced %d/100 identical draws", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRand(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 returned %g outside [0,1)", v)
		}
	}
}

func TestFloat64Uniformity(t *testing.T) {
	r := NewRand(11)
	const n = 200000
	var sum float64
	buckets := make([]int, 10)
	for i := 0; i < n; i++ {
		v := r.Float64()
		sum += v
		buckets[int(v*10)]++
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("uniform mean = %g, want ~0.5", mean)
	}
	for i, c := range buckets {
		frac := float64(c) / n
		if math.Abs(frac-0.1) > 0.01 {
			t.Errorf("bucket %d holds fraction %g, want ~0.1", i, frac)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRand(5)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestIntnCoversAllValues(t *testing.T) {
	r := NewRand(9)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		seen[r.Intn(10)] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) covered only %d values in 1000 draws", len(seen))
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRand(17)
	var s Summary
	for i := 0; i < 100000; i++ {
		s.Add(r.NormFloat64())
	}
	if math.Abs(s.Mean()) > 0.02 {
		t.Errorf("normal mean = %g, want ~0", s.Mean())
	}
	if math.Abs(s.Stddev()-1) > 0.02 {
		t.Errorf("normal stddev = %g, want ~1", s.Stddev())
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := NewRand(23)
	var s Summary
	for i := 0; i < 100000; i++ {
		s.Add(r.ExpFloat64())
	}
	if math.Abs(s.Mean()-1) > 0.02 {
		t.Errorf("exponential mean = %g, want ~1", s.Mean())
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRand(31)
	check := func(n uint8) bool {
		m := int(n%50) + 1
		p := r.Perm(m)
		seen := make([]bool, m)
		for _, v := range p {
			if v < 0 || v >= m || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := NewRand(77)
	child := parent.Split()
	// Child draws must not equal parent draws pairwise.
	same := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split stream matched parent %d/100 times", same)
	}
}

func TestShufflePreservesElements(t *testing.T) {
	r := NewRand(41)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	for _, v := range xs {
		sum += v
	}
	if sum != 36 {
		t.Fatalf("shuffle lost elements: sum=%d", sum)
	}
}

func BenchmarkRandUint64(b *testing.B) {
	r := NewRand(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

func BenchmarkRandNormFloat64(b *testing.B) {
	r := NewRand(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = r.NormFloat64()
	}
	_ = sink
}

// Known answers: the first four outputs of the reference splitmix64
// stream seeded with 0 (state advanced by SplitMixGamma per draw).
func TestSplitMix64KnownAnswers(t *testing.T) {
	want := []uint64{0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F, 0xF88BB8A8724C81EC}
	var state uint64
	for i, w := range want {
		if got := SplitMix64(state); got != w {
			t.Errorf("output %d = %#x, want %#x", i, got, w)
		}
		state += SplitMixGamma
	}
}
