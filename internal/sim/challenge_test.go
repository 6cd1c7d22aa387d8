package sim

import "testing"

// TestGoldenChallengeExtrapolation pins the data-challenge table
// exactly: the extrapolation is seeded and the seed is part of the
// published configuration, so lobster-bench -challenge and the
// EXPERIMENTS table must reproduce these rows bit-identically on every
// host. This test is the only holder of that pin.
func TestGoldenChallengeExtrapolation(t *testing.T) {
	pts, err := SimulateChallenge(DefaultChallengeConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := []ChallengePoint{
		{1, 10, 40, 100, 100, 12.5, 1},
		{2, 20, 80, 192.5, 200, 25, 1},
		{4, 40, 160, 395, 397.5, 49.6875, 0.99375000000000002},
		{8, 80, 320, 727.5, 797.5, 99.6875, 0.99687499999999996},
		{16, 160, 640, 1520, 1587.5, 198.4375, 0.9921875},
		{32, 320, 1280, 2995, 3177.5, 397.1875, 0.99296874999999996},
		{64, 640, 2560, 5962.5, 6350, 793.75, 0.9921875},
	}
	if len(pts) != len(want) {
		t.Fatalf("got %d rows, want %d", len(pts), len(want))
	}
	for i, p := range pts {
		if p != want[i] {
			t.Errorf("row %d diverged:\n got %+v\nwant %+v", i, p, want[i])
		}
	}
	// The shape claims behind the table: the fleet crosses the 200 Gbps
	// challenge target (25 GB/s) by two links, and the selector never
	// does worse than naive placement.
	if pts[1].AggregateGBps < 25 {
		t.Errorf("2-link aggregate %.1f GB/s below the 25 GB/s challenge target", pts[1].AggregateGBps)
	}
	for _, p := range pts {
		if p.AggregateGbps < p.NaiveGbps {
			t.Errorf("%d links: selector %.1f Gbps below naive %.1f", p.Links, p.AggregateGbps, p.NaiveGbps)
		}
	}
}

func TestChallengeRejectsBadConfig(t *testing.T) {
	bad := DefaultChallengeConfig()
	bad.StreamGbps = 0
	if _, err := SimulateChallenge(bad); err == nil {
		t.Error("zero stream ceiling accepted")
	}
	bad = DefaultChallengeConfig()
	bad.Links = []int{0}
	if _, err := SimulateChallenge(bad); err == nil {
		t.Error("zero link count accepted")
	}
}
