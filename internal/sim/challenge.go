package sim

import (
	"fmt"

	"lobster/internal/stats"
)

// Data-challenge extrapolation: the loopback harness (lobster-bench
// -challenge, the BENCH_challenge.json rules) measures what one client gets
// from striping across a handful of link-limited replicas; this model
// extends that measurement to paper-scale link counts — the Coffea-casa
// 200 Gbps challenge shape, where the question is how many storage-
// element uplinks a striping fleet needs before aggregate throughput
// crosses the target.
//
// The model is a fleet of clients, each running a fixed number of
// stripe streams, assigned to links under two policies side by side:
// naive (each stream lands on a uniformly random link — redirector
// order, nobody watching bandwidth) and selector (two-choice load
// balancing — the bandwidth-aware selector steering streams away from
// busy replicas). A stream's rate is capped by the client-side
// per-stream ceiling (what the real plane measured); a link serves at
// most its capacity. The fleet is provisioned at the saturation knee,
// where assignment quality is exactly what separates the policies:
// random placement overloads some links (clipped at capacity) while
// others idle, and the selector's near-even spread recovers that loss.
// Determinism is part of the contract: identical config → identical
// table, pinned by the golden test.

// ChallengeConfig parameterises the extrapolation.
type ChallengeConfig struct {
	// LinkGbps is one storage-element uplink, in Gbit/s (challenge
	// sites: 100 Gbit/s Ethernet).
	LinkGbps float64
	// StreamGbps is the per-stream ceiling a single stripe stream
	// reaches, in Gbit/s — fed from the loopback harness's measured
	// striped throughput divided by its stream count.
	StreamGbps float64
	// StreamsPerClient is the stripe fan-out of one fetching client.
	StreamsPerClient int
	// ClientsPerLink scales the fleet with the site count: the
	// challenge adds clients as it adds storage, holding the
	// clients-to-links ratio fixed.
	ClientsPerLink int
	// Links is the list of link counts to extrapolate over.
	Links []int
	Seed  uint64
}

// DefaultChallengeConfig matches the 200 Gbps challenge write-up shape:
// 100 Gbit/s site uplinks, 4-stream striping clients, and a fleet that
// grows with the storage.
func DefaultChallengeConfig() ChallengeConfig {
	return ChallengeConfig{
		LinkGbps:         100,
		StreamGbps:       2.5, // ~320 MB/s per stream, the loopback-measured order
		StreamsPerClient: 4,
		ClientsPerLink:   10, // 100 Gbit/s of mean demand per link: the knee
		Links:            []int{1, 2, 4, 8, 16, 32, 64},
		Seed:             17,
	}
}

// ChallengePoint is one extrapolated row: the aggregate the fleet
// pulls with this many storage-element links, under naive placement
// and under the bandwidth-aware selector.
type ChallengePoint struct {
	Links   int
	Clients int
	Streams int
	// NaiveGbps is aggregate throughput with uniformly random stream
	// placement (redirector order).
	NaiveGbps float64
	// AggregateGbps is aggregate throughput with selector (two-choice)
	// placement; AggregateGBps is the same number in gigabytes/s (the
	// 200 Gbps challenge target is 25 GB/s).
	AggregateGbps float64
	AggregateGBps float64
	// LinkUtilisation is selector aggregate over provisioned capacity.
	LinkUtilisation float64
}

// SimulateChallenge extrapolates aggregate throughput over cfg.Links.
func SimulateChallenge(cfg ChallengeConfig) ([]ChallengePoint, error) {
	if cfg.LinkGbps <= 0 || cfg.StreamGbps <= 0 || cfg.StreamsPerClient < 1 || cfg.ClientsPerLink < 1 {
		return nil, fmt.Errorf("sim: invalid challenge config %+v", cfg)
	}
	points := make([]ChallengePoint, 0, len(cfg.Links))
	for _, links := range cfg.Links {
		if links < 1 {
			return nil, fmt.Errorf("sim: challenge with %d links", links)
		}
		clients := links * cfg.ClientsPerLink
		streams := clients * cfg.StreamsPerClient
		naiveLoad := make([]int, links)    // uniformly random placement
		selectorLoad := make([]int, links) // two-choice placement
		rng := cfg.Seed + uint64(links)*0x9e3779b97f4a7c15
		for s := 0; s < streams; s++ {
			naiveLoad[int(splitmix(&rng)%uint64(links))]++
			// Two-choice: a stream lands on the less loaded of two
			// seeded picks — the selector steering stripes away from
			// busy replicas.
			a := int(splitmix(&rng) % uint64(links))
			b := int(splitmix(&rng) % uint64(links))
			if selectorLoad[b] < selectorLoad[a] {
				a = b
			}
			selectorLoad[a]++
		}
		served := func(load []int) float64 {
			var total float64
			for _, n := range load {
				demand := float64(n) * cfg.StreamGbps
				if demand > cfg.LinkGbps {
					demand = cfg.LinkGbps // overloaded link clips; excess streams starve
				}
				total += demand
			}
			return total
		}
		aggregate := served(selectorLoad)
		points = append(points, ChallengePoint{
			Links:           links,
			Clients:         clients,
			Streams:         streams,
			NaiveGbps:       served(naiveLoad),
			AggregateGbps:   aggregate,
			AggregateGBps:   aggregate / 8,
			LinkUtilisation: aggregate / (float64(links) * cfg.LinkGbps),
		})
	}
	return points, nil
}

// splitmix advances a splitmix64 state and returns the next value —
// the sim plane's standard cheap deterministic sequence.
func splitmix(state *uint64) uint64 {
	z := stats.SplitMix64(*state)
	*state += stats.SplitMixGamma
	return z
}
