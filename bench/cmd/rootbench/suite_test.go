package main

import (
	"encoding/json"
	"testing"

	"rootless/bench"
)

// Two sets that disagree by more than the bound must fail the
// self-check whichever of them is the better one, and a metric a set
// does not carry must fail it too.
func TestCompareIsSymmetric(t *testing.T) {
	var man manifest
	if err := json.Unmarshal([]byte(`{"end_to_end": [
		{"name": "capacity_qps", "unit": "1/s", "better": "higher", "bound": 0.25},
		{"name": "allocs_per_query", "unit": "count", "better": "lower", "bound": 0.1}]}`), &man); err != nil {
		t.Fatal(err)
	}
	mk := func(qps, allocs float64) set {
		s := make(set)
		for _, w := range bench.WorkloadNames {
			s[w] = map[string]metricJSON{
				"capacity_qps":     {Value: qps, Unit: "1/s"},
				"allocs_per_query": {Value: allocs, Unit: "count"},
			}
		}
		return s
	}
	base := mk(100000, 10)
	for _, c := range []struct {
		name     string
		second   set
		wantOver map[string]bool
	}{
		{"same", mk(100000, 10), map[string]bool{}},
		{"inside both bounds", mk(120000, 9.2), map[string]bool{}},
		{"qps 40% better", mk(140000, 10), map[string]bool{"capacity_qps": true}},
		{"qps 40% worse", mk(60000, 10), map[string]bool{"capacity_qps": true}},
		{"allocs 15% better", mk(100000, 8.5), map[string]bool{"allocs_per_query": true}},
		{"allocs 15% worse", mk(100000, 11.5), map[string]bool{"allocs_per_query": true}},
		{"metric missing", set{}, map[string]bool{"capacity_qps": true, "allocs_per_query": true}},
	} {
		rows := compare(&man, base, c.second)
		if len(rows) != 2*len(bench.WorkloadNames) {
			t.Fatalf("%s: %d rows, want one per workload and metric", c.name, len(rows))
		}
		for _, r := range rows {
			if r.over() != c.wantOver[r.metric] {
				t.Errorf("%s: %s@%s differs by %.3f against %.3f, over = %v", c.name, r.metric, r.workload, r.differ, r.bound, r.over())
			}
		}
	}
}
