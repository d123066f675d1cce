package main

// metricDef names one reported metric, its unit and which direction is
// better. BENCHMARK.json lists the same metrics; a test keeps them in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the untraced run's metrics, reported on every workload. Each
// workload measures them on its own traffic; README.md gives the per-workload
// meaning.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"request_ms_p50", "ms", "lower"},
	{"first_line_ms_p50", "ms", "lower"},
	{"items_per_s", "1/s", "higher"},
	{"rss_mb_p50", "MB", "lower"},
}

// perLayer are the traced run's metrics, reported on every workload; a
// layer the workload does not reach reports 0.
var perLayer = []metricDef{
	{"tree.generate_ms_p50", "ms", "lower"},
	{"tree.from_parents_ms_p50", "ms", "lower"},
	{"tree.nodes", "count", "lower"},
	{"sim.reset_us_p50", "us", "lower"},
	{"sim.apply_ns_per_round", "ns", "lower"},
	{"sim.rounds", "count", "lower"},
	{"sim.moves", "count", "lower"},
	{"core.select_ns_per_round", "ns", "lower"},
	{"core.reanchors", "count", "lower"},
	{"recursive.select_ns_per_round", "ns", "lower"},
	{"cte.select_ns_per_round", "ns", "lower"},
	{"offline.select_ns_per_round", "ns", "lower"},
	{"levelwise.select_ns_per_round", "ns", "lower"},
	{"treemining.select_ns_per_round", "ns", "lower"},
	{"potential.select_ns_per_round", "ns", "lower"},
	{"async.run_ms_p50", "ms", "lower"},
	{"async.events", "count", "lower"},
	{"async.events_per_s", "1/s", "higher"},
	{"sweep.engine_us_per_point", "us", "lower"},
	{"sweep.dispatch_us_per_point", "us", "lower"},
	{"sweep.worker_busy_ratio", "ratio", "higher"},
	{"server.self_ms_p50", "ms", "lower"},
	{"server.encode_us_per_line", "us", "lower"},
	{"server.response_bytes", "bytes", "lower"},
	{"server.queue_wait_ms_p50", "ms", "lower"},
	{"server.requests", "count", "lower"},
	{"server.rejected", "count", "lower"},
	{"server.sweep_points", "count", "lower"},
	{"jobstore.append_ms_p50", "ms", "lower"},
	{"jobstore.append_ms_p99", "ms", "lower"},
	{"jobstore.replay_ms", "ms", "lower"},
	{"jobstore.replay_records", "count", "lower"},
	{"jobstore.appends", "count", "lower"},
	{"jobstore.wal_bytes", "bytes", "lower"},
	{"jobstore.replay_hit_ratio", "ratio", "higher"},
	{"jobstore.wal_appends", "count", "lower"},
	{"jobstore.replayed_points", "count", "lower"},
	{"dsweep.run_ms", "ms", "lower"},
	{"dsweep.shards", "count", "lower"},
	{"dsweep.retries", "count", "lower"},
	{"dsweep.hedges", "count", "lower"},
	{"dsweep.failovers", "count", "lower"},
	{"dsweep.useful_dispatch_ratio", "ratio", "higher"},
	{"dsweep.worker_busy_ratio", "ratio", "higher"},
	{"dsweep.coordinator_self_ms", "ms", "lower"},
	{"dsweep.replay_points_per_s", "1/s", "higher"},
	{"bench.trace_overhead_ratio", "ratio", "lower"},
	{"bench.closure_ratio", "ratio", "higher"},
	{"bench.spans", "count", "lower"},
}
