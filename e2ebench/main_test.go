package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"testing"
)

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	if supports(99, 0.9) {
		t.Error("99 samples leave 9 beyond p90, yet p90 is supported")
	}
	if !supports(100, 0.9) {
		t.Error("100 samples leave 10 beyond p90, yet p90 is not supported")
	}
	if supports(999, 0.99) || !supports(1000, 0.99) {
		t.Error("p99 must need exactly 1000 samples")
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if q, v, ok := tail(xs); !ok || q != 0.9 || v != 90 {
		t.Errorf("tail of 1..100 = p%g %v (ok %v), want p90 90", 100*q, v, ok)
	}
	if _, _, ok := tail(xs[:30]); ok {
		t.Error("30 samples support no tail percentile above the median, yet tail reported one")
	}
	if got := supportedQuantile(xs[:50], 0.9); got != 0 {
		t.Errorf("p90 of 50 samples = %v, want 0 (unsupported)", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	spans := []Span{
		{Name: "bench.request", ID: 1, Start: 0, End: 100, Calls: 1, Busy: 100},
		// Two overlapping children cover [10,60]: 50, not 60.
		{Name: "sweep.worker", ID: 2, Parent: 1, Start: 10, End: 40, Calls: 1, Busy: 30},
		{Name: "sweep.worker", ID: 3, Parent: 1, Start: 30, End: 60, Calls: 1, Busy: 30},
		// A grandchild is charged to its parent only.
		{Name: "tree.Generate", ID: 4, Parent: 2, Start: 15, End: 25, Calls: 1, Busy: 10},
		// A folded child covers its busy time, not its envelope [60,100].
		{Name: "sim.Apply", ID: 5, Parent: 1, Start: 60, End: 100, Calls: 4, Busy: 20},
		// A child sticking out of its parent is clipped.
		{Name: "sim.Reset", ID: 6, Parent: 3, Start: 50, End: 70, Calls: 1, Busy: 20},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 30, 2: 20, 3: 20, 4: 10, 5: 20, 6: 20}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %d, want %d", id, self[id], w)
		}
	}
	if got, want := closure(spans), 0.7; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("closure = %v, want %v", got, want)
	}
	layers := layerSelf(spans)
	if layers["sweep"] != 40 || layers["sim"] != 40 || layers["bench"] != 30 {
		t.Errorf("layer self times %v", layers)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	seen := map[string]bool{}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		names = append(names, m.name)
	}
	for _, n := range names {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark %q: %q", i, bj.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit || got[i].Better != m.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, got[i], m)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, err := requestBodies(w.name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := requestBodies(w.name, 7)
		if err != nil {
			t.Fatal(err)
		}
		c, err := requestBodies(w.name, 8)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) == 0 || len(a) != len(b) {
			t.Fatalf("%s: %d and %d bodies from one seed", w.name, len(a), len(b))
		}
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Errorf("%s: body %d differs between two generations from seed 7", w.name, i)
			}
		}
		if bytes.Equal(bytes.Join(a, nil), bytes.Join(c, nil)) {
			t.Errorf("%s: seeds 7 and 8 generate the same bodies", w.name)
		}
	}
}

// requestBodies returns the exact request bodies a workload sends for seed,
// in sending order (fleet-journal: the plans of its first two iterations).
// The determinism test compares them across calls.
func requestBodies(name string, seed int64) ([][]byte, error) {
	var vs []any
	switch name {
	case "explore-large":
		in, err := exploreInputs(seed)
		if err != nil {
			return nil, err
		}
		var out [][]byte
		for _, x := range in {
			out = append(out, x.body)
		}
		return out, nil
	case "sweep-grid":
		vs = []any{gridPlan(seed)}
	case "fleet-journal":
		vs = []any{fleetPlan(seed, 0), fleetPlan(seed, 1)}
	case "async-sweep":
		vs = []any{asyncPlan(seed)}
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	var out [][]byte
	for _, v := range vs {
		b, err := json.Marshal(v)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}
