package main

// metric is one named measurement of the benchmark. The names are the
// contract later changes are measured against: BENCHMARK.json at the
// repository root declares the end-to-end metrics and the per-layer
// metrics the JSON result carries, and the smoke test keeps that file and
// this table in step.
type metric struct {
	name   string
	unit   string
	better string // "lower" or "higher": the direction an improvement moves it
	// inJSON is false for per-layer timings that only some workloads
	// exercise. They are printed in the traced report, but kept out of
	// the JSON result, where every per-layer metric must be a measurement
	// on every workload.
	inJSON bool
}

// endToEnd are the metrics a user of the service sees, measured with
// tracing off. Each is measured on every workload and is never zero.
var endToEnd = []metric{
	{"setup_s", "s", "lower", true},
	{"publish_p50_ms", "ms", "lower", true},
	{"delivery_p50_ms", "ms", "lower", true},
	{"estimates_per_s", "1/s", "higher", true},
	{"loc_error_p50_m", "m", "lower", true},
	{"cpu_ms_per_estimate", "ms", "lower", true},
	{"heap_mb", "MiB", "lower", true},
}

// untracedExtra are end-to-end figures the untraced run prints but the
// JSON result omits. The latency tails spread too far between runs on a
// two-vCPU machine to bound a regression: fleet-cold's p99 by 0.3-0.6
// (GC assists during rehydrates), walk-http's p90 by up to 0.3 (how
// often the generator oversleeps depends on how busy the machine is), so
// the medians are the bounded latencies. failed_ratio sits at zero on a
// healthy run (the JSON carries it as attempted/failed), and update_s
// exists only where the workload runs LoLi-IR refreshes.
var untracedExtra = []metric{
	{"publish_p90_ms", "ms", "lower", false},
	{"publish_p99_ms", "ms", "lower", false},
	{"delivery_p90_ms", "ms", "lower", false},
	{"delivery_p99_ms", "ms", "lower", false},
	{"failed_ratio", "ratio", "lower", false},
	{"update_s", "s", "lower", false},
}

// perLayer are the metrics of single layers, measured in the traced run.
var perLayer = []metric{
	{"gen.lag_p50_ms", "ms", "lower", true},
	{"gen.lag_p99_ms", "ms", "lower", true},
	{"gen.offered_reports", "count", "higher", true},
	{"client.send_us_p50", "us", "lower", false},
	{"client.lines_acked", "count", "higher", true},
	{"client.sse_gap_p50_ms", "ms", "lower", false},
	{"collector.transit_us_p50", "us", "lower", false},
	{"collector.transit_us_p99", "us", "lower", false},
	{"collector.sink_us_p50", "us", "lower", false},
	{"collector.frames_dropped", "count", "lower", true},
	{"ingest.us_p50", "us", "lower", false},
	{"ingest.us_p99", "us", "lower", false},
	{"ingest.calls", "count", "higher", true},
	{"ingest.shed", "count", "lower", true},
	{"ingest.cold_us_p50", "us", "lower", false},
	{"failed_ratio", "ratio", "lower", true},
	{"sched.rounds", "count", "higher", true},
	{"sched.superseded_ratio", "ratio", "lower", true},
	{"sched.queue_len_p99", "count", "lower", true},
	{"sched.starved", "count", "lower", true},
	{"core.locate_us_p50", "us", "lower", true},
	{"core.locate_us_p99", "us", "lower", true},
	{"core.locate_calls", "count", "higher", true},
	{"core.locate_isolated_us_p50", "us", "lower", true},
	{"core.detect_us_p50", "us", "lower", true},
	{"core.update_ms_p50", "ms", "lower", false},
	{"core.loli_iters", "count", "lower", true},
	{"store.get_us_p50", "us", "lower", false},
	{"store.put_us_p50", "us", "lower", false},
	{"store.gets", "count", "lower", true},
	{"store.puts", "count", "lower", true},
	{"store.put_bytes_mean", "bytes", "lower", true},
	{"residency.rehydrates", "count", "lower", true},
	{"residency.evictions", "count", "lower", true},
	{"residency.hit_ratio", "ratio", "higher", true},
	{"residency.hot_zones_max", "count", "lower", true},
	{"residency.errors", "count", "lower", true},
	{"publish.watch_gap_us_p50", "us", "lower", true},
	{"go.allocs_per_estimate", "count", "lower", true},
	{"go.gc_pause_ms_total", "ms", "lower", true},
}
