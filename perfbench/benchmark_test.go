package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestDeclaredMetricsMatch keeps BENCHMARK.json, the metrics the program
// emits and config.json's documentation of them in step.
func TestDeclaredMetricsMatch(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var b struct {
		Workloads []decl `json:"workloads"`
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var docs struct {
		EndToEnd map[string]string   `json:"end_to_end"`
		PerLayer map[string][]string `json:"per_layer"`
	}
	if err := json.Unmarshal(configJSON, &docs); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []decl, emitted []metricDef, documented func(string) bool) {
		if len(declared) != len(emitted) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program emits %d", kind, len(declared), len(emitted))
			return
		}
		for i, d := range declared {
			if d.Name != emitted[i].name || d.Unit != emitted[i].unit {
				t.Errorf("%s %d: declared %s [%s], emitted %s [%s]", kind, i, d.Name, d.Unit, emitted[i].name, emitted[i].unit)
			}
			if !documented(d.Name) {
				t.Errorf("%s %s: not documented in config.json", kind, d.Name)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, func(n string) bool { return docs.EndToEnd[n] != "" })
	check("per_layer", b.PerLayer, perLayer, func(n string) bool { return len(docs.PerLayer[n]) == 3 })
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s declared but not implemented", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented", len(b.Workloads), len(workloads))
	}
}
