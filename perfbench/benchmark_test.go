package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the metrics
// the benchmark reports, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want [][2]string) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics declared, %d reported", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i][0] || got[i].Unit != want[i][1] {
				t.Errorf("%s %d: declared %s (%s), reported %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i][0], want[i][1])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, layerUnits())
}
