package obs

import "testing"

// TestMetricTableComplete: every Metric has a table entry — a unique,
// non-empty name that MetricByName resolves back to it. A constant added
// without an entry leaves a blank name and fails here.
func TestMetricTableComplete(t *testing.T) {
	seen := map[string]Metric{}
	for _, m := range AllMetrics() {
		name := m.String()
		if name == "" {
			t.Errorf("metric %d has no table entry", uint8(m))
			continue
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("metrics %d and %d share the name %q", uint8(prev), uint8(m), name)
		}
		seen[name] = m
		if got, ok := MetricByName(name); !ok || got != m {
			t.Errorf("MetricByName(%q) = %d, %v; want %d", name, uint8(got), ok, uint8(m))
		}
	}
	if NumMetrics.PerCycle() {
		t.Error("out-of-range metric reports PerCycle")
	}
}
