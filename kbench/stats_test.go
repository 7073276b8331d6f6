package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.2, 1}, {0.5, 3}, {0.8, 4}, {0.81, 5}, {1, 5}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
}

func TestTailNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, ok := tail(xs, 0.9); ok {
		t.Error("p90 of 99 samples reported with 9.9 beyond it")
	}
	xs = append(xs, 100)
	if v, ok := tail(xs, 0.9); !ok || v != 90 {
		t.Errorf("p90 of 100 samples = %v, %v; want 90, true", v, ok)
	}
	if _, ok := tail(xs, 0.99); ok {
		t.Error("p99 of 100 samples reported with 1 beyond it")
	}
	big := make([]float64, 1000)
	if _, ok := tail(big, 0.99); !ok {
		t.Error("p99 of 1000 samples omitted with 10 beyond it")
	}
}

func TestSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	parent := interval{at(0), at(100)}
	cases := []struct {
		name string
		kids []interval
		want time.Duration
	}{
		{"no children", nil, 100 * time.Millisecond},
		{"disjoint", []interval{{at(10), at(20)}, {at(50), at(70)}}, 70 * time.Millisecond},
		{"overlapping counted once", []interval{{at(10), at(40)}, {at(30), at(60)}}, 50 * time.Millisecond},
		{"nested", []interval{{at(10), at(60)}, {at(20), at(30)}}, 50 * time.Millisecond},
		{"spilling past the parent", []interval{{at(-50), at(10)}, {at(90), at(200)}}, 80 * time.Millisecond},
		{"outside the parent", []interval{{at(150), at(200)}}, 100 * time.Millisecond},
		{"covering", []interval{{at(-1), at(101)}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.kids); got != c.want {
			t.Errorf("%s: self time %v, want %v", c.name, got, c.want)
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the reported metric names and units
// in step with the repository's BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var bj struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind string
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", bj.EndToEnd, endToEnd}, {"per_layer", bj.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", c.kind, len(c.json), len(c.defs))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", c.kind, i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}
