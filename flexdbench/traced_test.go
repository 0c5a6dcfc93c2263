package main

import (
	"testing"
)

// smallConfig shrinks every workload so the traced run takes a moment.
func smallConfig(t *testing.T, seed int64) config {
	cfg := defaultConfig(seed, 1)
	cfg.ingestFleet, cfg.churnFleet, cfg.analyticsFleet = 3000, 3000, 1500
	cfg.traceRounds, cfg.breakdownRounds = 6, 1
	cfg.reboots = map[string]int{wlIngest: 2}
	cfg.snapshotEvery = 1000
	cfg.liveRef = false
	cfg.workDir = t.TempDir()
	return cfg
}

// TestTracedCountsRepeat runs each workload's traced replay twice at
// one seed: it must pass its own correctness gate, and every count it
// reports must repeat exactly (times are free to differ).
func TestTracedCountsRepeat(t *testing.T) {
	counts := map[string][]string{
		wlIngest:    {"persist.fsyncs", "persist.snapshots", "persist.replay_records", "persist.bytes_per_offer"},
		wlChurn:     {"grouping.groups", "inc.dirty_groups", "inc.hit_ratio", "inc.reused_placements", "inc.full_runs", "server.schedule_bytes"},
		wlAnalytics: {"grouping.groups"},
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			var first map[string]metric
			for run := 0; run < 2; run++ {
				res, rep, err := runTraced(smallConfig(t, 5), w.Name)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("traced run incorrect: %+v, errors %v", res, rep.Errors)
				}
				if len(res.Metrics) != len(layerMetrics) {
					t.Fatalf("%d metrics, want %d", len(res.Metrics), len(layerMetrics))
				}
				if first == nil {
					first = res.Metrics
					for _, name := range counts[w.Name] {
						// Placement reuse and full runs may legitimately
						// be zero on a fleet this small.
						if name != "inc.reused_placements" && name != "inc.full_runs" && first[name].Value <= 0 {
							t.Errorf("%s = %v, want a positive count", name, first[name].Value)
						}
					}
					continue
				}
				for _, name := range counts[w.Name] {
					if a, b := first[name].Value, res.Metrics[name].Value; a != b {
						t.Errorf("%s: %v then %v at the same seed", name, a, b)
					}
				}
			}
		})
	}
}
