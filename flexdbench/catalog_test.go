package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// benchmarkFile is BENCHMARK.json's shape.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadInfo `json:"workloads"`
	EndToEnd   []e2eMetric    `json:"end_to_end"`
	PerLayer   []layerMetric  `json:"per_layer"`
}

// TestBenchmarkFileMatchesCatalog keeps BENCHMARK.json and the catalog
// the runs report from in lockstep.
func TestBenchmarkFileMatchesCatalog(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.Workloads, workloads) {
		t.Errorf("workloads differ:\nfile    %v\ncatalog %v", f.Workloads, workloads)
	}
	if !reflect.DeepEqual(f.EndToEnd, e2eMetrics) {
		t.Errorf("end-to-end metrics differ:\nfile    %v\ncatalog %v", f.EndToEnd, e2eMetrics)
	}
	if len(f.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics in the file, %d in the catalog", len(f.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		if g := f.PerLayer[i]; g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
			t.Errorf("per-layer %d: file %+v, catalog %+v", i, g, m)
		}
	}
}

// TestLayerTargetsExist checks every layer metric's target names a
// catalogued workload and end-to-end metric.
func TestLayerTargetsExist(t *testing.T) {
	for _, m := range layerMetrics {
		for _, target := range m.Moves {
			wl, metric, ok := strings.Cut(target, "/")
			known := false
			for _, w := range workloads {
				known = known || w.Name == wl
			}
			if !ok || !known || unitOf(metric) == "" {
				t.Errorf("%s moves unknown %q", m.Name, target)
			}
		}
	}
}

// unitOf returns a catalogued metric's unit.
func unitOf(name string) string {
	for _, m := range e2eMetrics {
		if m.Name == name {
			return m.Unit
		}
	}
	for _, m := range layerMetrics {
		if m.Name == name {
			return m.Unit
		}
	}
	return ""
}
