package main

// The catalog is the benchmark's contract in code: every workload with
// the reason it exists, every end-to-end metric with its unit and
// regression bound, and every per-layer metric with the end-to-end
// metrics it is expected to move. BENCHMARK.json mirrors it (the test
// in catalog_test.go keeps the two in lockstep) and every result line
// carries it, so a number is never read without its purpose.

// Workload names.
const (
	wlIngest    = "fleet-ingest"
	wlChurn     = "steady-churn"
	wlAnalytics = "fleet-analytics"
)

type workloadInfo struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadInfo{
	{wlIngest, "200k new offers into an empty fsync-always flexd, then reboots: ingest decode, shard adds, WAL append+fsync and replay"},
	{wlChurn, "50k fleet, 0.1% resubmitted per round then max-group=64 schedules: the incremental cache and placement replay run"},
	{wlAnalytics, "20k fleet, measures and max-group=64 aggregate per cycle: core measures, uncached grouping+aggregate, JSON encode"},
}

type e2eMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

var e2eMetrics = []e2eMetric{
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"ingest_offers_per_s", "1/s", "higher", 0.25},
	{"ingest_p50_ms", "ms", "lower", 0.25},
	{"ingest_p90_ms", "ms", "lower", 0.25},
	{"restart_s", "s", "lower", 0.25},
	{"resubmit_p50_ms", "ms", "lower", 0.25},
	{"resubmit_p90_ms", "ms", "lower", 0.25},
	{"schedule_p50_ms", "ms", "lower", 0.25},
	{"schedule_p90_ms", "ms", "lower", 0.25},
	{"measures_p50_ms", "ms", "lower", 0.25},
	{"measures_p90_ms", "ms", "lower", 0.25},
	{"aggregate_p50_ms", "ms", "lower", 0.25},
	{"aggregate_p90_ms", "ms", "lower", 0.25},
}

type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Moves names the end-to-end metrics (workload/metric) this layer
	// metric should move, written down before anything is measured.
	Moves []string `json:"-"`
}

var layerMetrics = func() []layerMetric {
	ingestP := []string{wlIngest + "/ingest_p50_ms", wlIngest + "/ingest_p90_ms"}
	sched := []string{wlChurn + "/schedule_p50_ms", wlChurn + "/schedule_p90_ms"}
	ms := []layerMetric{
		{"ingest.decode_ms", "ms", "lower", []string{wlIngest + "/ingest_offers_per_s", wlIngest + "/ingest_p50_ms", wlChurn + "/resubmit_p50_ms"}},
		{"shard.add_ms", "ms", "lower", []string{wlIngest + "/ingest_p50_ms", wlChurn + "/resubmit_p50_ms"}},
		{"shard.merge_ms", "ms", "lower", []string{wlIngest + "/ingest_p50_ms", wlChurn + "/resubmit_p50_ms", wlChurn + "/schedule_p50_ms"}},
		{"persist.append_ms", "ms", "lower", ingestP},
		{"persist.fsync_ms", "ms", "lower", ingestP},
		{"persist.fsyncs", "count", "lower", ingestP},
		{"persist.snapshots", "count", "lower", ingestP},
		{"persist.bytes_per_offer", "B", "lower", ingestP},
		{"persist.replay_ms", "ms", "lower", []string{wlIngest + "/restart_s"}},
		{"persist.replay_records", "count", "lower", []string{wlIngest + "/restart_s"}},
		{"grouping.sort_ms", "ms", "lower", []string{wlChurn + "/schedule_p50_ms", wlAnalytics + "/aggregate_p50_ms"}},
		{"grouping.pack_ms", "ms", "lower", []string{wlChurn + "/schedule_p50_ms", wlAnalytics + "/aggregate_p50_ms"}},
		{"grouping.groups", "count", "lower", []string{wlChurn + "/schedule_p50_ms", wlAnalytics + "/aggregate_p50_ms"}},
		{"inc.run_self_ms", "ms", "lower", sched},
		{"inc.dirty_groups", "count", "lower", sched},
		{"inc.hit_ratio", "ratio", "higher", sched},
		{"inc.reused_placements", "count", "higher", sched},
		{"inc.full_runs", "count", "lower", sched},
		{"aggregate.aggregate_ms", "ms", "lower", []string{wlChurn + "/schedule_p50_ms", wlAnalytics + "/aggregate_p50_ms"}},
		{"aggregate.disaggregate_ms", "ms", "lower", []string{wlChurn + "/schedule_p50_ms"}},
		{"sched.place_ms", "ms", "lower", []string{wlChurn + "/schedule_p90_ms", wlChurn + "/setup_s"}},
		{"core.measures_ms", "ms", "lower", []string{wlAnalytics + "/measures_p50_ms"}},
	}
	for _, m := range servedMeasures() {
		moves := []string{wlAnalytics + "/measures_p50_ms"}
		ms = append(ms,
			layerMetric{"core." + m.Name() + ".value_ms", "ms", "lower", moves},
			layerMetric{"core." + m.Name() + ".set_ms", "ms", "lower", moves})
	}
	return append(ms,
		layerMetric{"server.encode_schedule_ms", "ms", "lower", []string{wlChurn + "/schedule_p50_ms"}},
		layerMetric{"server.schedule_bytes", "B", "lower", []string{wlChurn + "/schedule_p50_ms"}},
		layerMetric{"server.encode_measures_ms", "ms", "lower", []string{wlAnalytics + "/measures_p50_ms", wlAnalytics + "/measures_p90_ms"}},
		layerMetric{"server.encode_aggregate_ms", "ms", "lower", []string{wlAnalytics + "/aggregate_p50_ms", wlAnalytics + "/aggregate_p90_ms"}},
		layerMetric{"trace.coverage", "ratio", "higher", nil},
	)
}()
