package stats

import (
	"math"
	"testing"
)

func TestRandDeterminism(t *testing.T) {
	a := NewRand(42)
	b := NewRand(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("draw %d: %d != %d", i, av, bv)
		}
	}
	// Known answers: the stream itself, not just its repeatability, so a
	// rewrite of the step that drifts fails here and not in a figure.
	for _, c := range []struct {
		name string
		r    *Rand
		want [4]uint64
	}{
		{"NewRand(1)", NewRand(1), [4]uint64{0x54a311bf298d1c98, 0xc542c04e4c4a8760, 0xebccca349381bfc3, 0x4d249a015a26df57}},
		{"NewRand(42)", NewRand(42), [4]uint64{0x6c25d3106055f0aa, 0x5597eb32949d9b1b, 0x8d8d89c90f05d381, 0xdf0a3ed28fb13592}},
		{"NewRandStream(7, 3)", NewRandStream(7, 3), [4]uint64{0xad980842b96ec897, 0xee7e645767f8bd90, 0x820c1a4d32576a8b, 0x5304081d7057aaf0}},
	} {
		for i, w := range c.want {
			if got := c.r.Uint64(); got != w {
				t.Errorf("%s draw %d = %#x, want %#x", c.name, i, got, w)
			}
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

func TestNormFloat64Moments(t *testing.T) {
	r := NewRand(17)
	mean, sd := moments(100000, r.NormFloat64)
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %g, want ~0", mean)
	}
	if math.Abs(sd-1) > 0.02 {
		t.Errorf("normal stddev = %g, want ~1", sd)
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

func BenchmarkRandUint64(b *testing.B) {
	r := NewRand(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

// BenchmarkRandFill is event generation's inner loop: 1 MiB, the chunk
// deploy.Start fills the dataset in.
func BenchmarkRandFill(b *testing.B) {
	r := NewRand(1)
	buf := make([]byte, 1<<20)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Fill(buf)
	}
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
