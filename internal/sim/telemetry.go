package sim

import (
	"lobster/internal/telemetry"
)

// bigRunTelemetry drives the real plane's metric series from the simulated
// clock: the same series names, the same instruments, with time supplied by
// the discrete-event scheduler instead of the wall. The zero value is free
// (every instrument nil), so an uninstrumented run pays one branch per
// update site. Telemetry never touches the RNG or event ordering, keeping
// instrumented runs bit-identical to uninstrumented ones.
type bigRunTelemetry struct {
	// Master-side series (mirrors wq.Master.Instrument).
	dispatches   *telemetry.Counter
	requeues     *telemetry.Counter
	tasksDone    *telemetry.Counter
	tasksFailed  *telemetry.Counter
	tasksWaiting *telemetry.Gauge
	tasksRunning *telemetry.Gauge

	// Software delivery (mirrors squid.Proxy.Instrument): cold-cache pulls
	// are misses, warm setups are hits, slot-mates waiting on a cold pull
	// are coalesced.
	squidHits      *telemetry.Counter
	squidMisses    *telemetry.Counter
	squidCoalesced *telemetry.Counter
	squidFetched   *telemetry.Counter

	// Storage element (mirrors chirp.Server.Instrument).
	chirpActive   *telemetry.Gauge
	chirpQueued   *telemetry.Gauge
	chirpBytesIn  *telemetry.Counter
	chirpBytesOut *telemetry.Counter

	// Pilot fleet (mirrors cluster.Pool.Instrument).
	pilotsUp  *telemetry.Gauge
	launched  *telemetry.Counter
	evictions *telemetry.Counter

	// Task lifecycle stage histograms (lobster_task_stage_seconds{stage}).
	stages *telemetry.StageHistograms
}

// init registers the simulated plane's series on reg. The registry's clock
// must already be the simulation clock so scrape timestamps land in
// simulated seconds.
func (t *bigRunTelemetry) init(reg *telemetry.Registry) {
	t.dispatches = reg.Counter("lobster_wq_dispatches_total",
		"Tasks dispatched to workers.")
	t.requeues = reg.Counter("lobster_wq_requeues_total",
		"Tasks requeued after losing their worker.")
	t.tasksDone = reg.Counter("lobster_wq_tasks_done_total",
		"Tasks that returned success.")
	t.tasksFailed = reg.Counter("lobster_wq_tasks_failed_total",
		"Tasks that returned failure.")
	t.tasksWaiting = reg.Gauge("lobster_wq_tasks_waiting",
		"Tasks queued and awaiting dispatch.")
	t.tasksRunning = reg.Gauge("lobster_wq_tasks_running",
		"Tasks currently running on workers.")

	t.squidHits = reg.Counter("lobster_squid_hits_total",
		"Setups served from a warm worker cache.")
	t.squidMisses = reg.Counter("lobster_squid_misses_total",
		"Cold-cache setups pulled through the proxy.")
	t.squidCoalesced = reg.Counter("lobster_squid_coalesced_total",
		"Setups that piggybacked on a slot-mate's in-flight cold pull.")
	t.squidFetched = reg.Counter("lobster_squid_bytes_fetched_total",
		"Bytes pulled through the proxy for cold caches.")
	reg.GaugeFunc("lobster_squid_hit_ratio",
		"Warm-setup ratio: hits / (hits + misses).",
		func() float64 {
			h, m := float64(t.squidHits.Value()), float64(t.squidMisses.Value())
			if h+m == 0 {
				return 0
			}
			return h / (h + m)
		})

	t.chirpActive = reg.Gauge("lobster_chirp_active_connections",
		"Transfers holding a chirp service slot right now.")
	t.chirpQueued = reg.Gauge("lobster_chirp_queued_connections",
		"Transfers waiting for a chirp service slot.")
	t.chirpBytesIn = reg.Counter("lobster_chirp_bytes_in_total",
		"Bytes staged out to the storage element.")
	t.chirpBytesOut = reg.Counter("lobster_chirp_bytes_out_total",
		"Bytes staged in from the storage element (pile-up).")

	t.pilotsUp = reg.Gauge("lobster_cluster_pilots_up",
		"Pilot workers currently connected.")
	t.launched = reg.Counter("lobster_cluster_pilots_launched_total",
		"Pilot worker lives ever started (including restarts).")
	t.evictions = reg.Counter("lobster_cluster_evictions_total",
		"Pilot workers evicted by the batch system.")

	t.stages = telemetry.NewStageHistograms(reg)
}
