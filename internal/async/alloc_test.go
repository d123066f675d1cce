package async

import (
	"context"
	"math/rand"
	"testing"

	"bfdn/internal/tree"
)

// recycledPoint is one steady-state continuous-time sweep point, the
// internal/sweep runAsync path: the worker's engine is Rebound to the
// point's strategy and latency, Reset in place and run.
type recycledPoint struct {
	e      *Engine
	alg    Algorithm
	lat    Latency
	tr     *tree.Tree
	speeds []float64
	seed   int64
}

// newRecycledPoint builds the async-sweep benchmark's point shape: a
// 5000-node random tree of depth 40, eight robots at speeds 1,1,2,4 twice
// and jitter:0.5 latency.
func newRecycledPoint(tb testing.TB, name string) *recycledPoint {
	return newPoint(tb, name, tree.FamilyRandom, 5000, 8)
}

// newPoint builds a recycled point of algorithm name on an n-node tree of
// family f and target depth 40, with k robots cycling through speeds
// 1,1,2,4 and jitter:0.5 latency.
func newPoint(tb testing.TB, name string, f tree.Family, n, k int) *recycledPoint {
	tb.Helper()
	tr, err := tree.Generate(f, n, 40, rand.New(rand.NewSource(7)))
	if err != nil {
		tb.Fatal(err)
	}
	speeds := make([]float64, k)
	for i := range speeds {
		speeds[i] = []float64{1, 1, 2, 4}[i%4]
	}
	alg, err := NewNamedAlgorithm(name)
	if err != nil {
		tb.Fatal(err)
	}
	lat, err := ParseLatency("jitter:0.5")
	if err != nil {
		tb.Fatal(err)
	}
	p := &recycledPoint{alg: alg, lat: lat, tr: tr, speeds: speeds, seed: 1}
	if p.e, err = NewEngine(tr, p.speeds, WithAlgorithm(alg), WithLatency(lat)); err != nil {
		tb.Fatal(err)
	}
	return p
}

// run executes one point on a fresh latency seed.
func (p *recycledPoint) run() (Result, error) {
	p.seed++
	p.e.Rebind(p.alg, p.lat)
	if err := p.e.Reset(p.tr, p.speeds, p.seed); err != nil {
		return Result{}, err
	}
	return p.e.RunContext(context.Background(), 0)
}

// recycledPointAllocPin bounds the allocations of one recycled point. The
// only one the engine makes today is Result's WorkDist copy; the ceiling
// leaves headroom for a few O(1) allocations but sits orders of magnitude
// below the tens of thousands of events a point processes, so a boxed
// event heap or any other per-event allocation fails it at once.
const recycledPointAllocPin = 4

// TestRecycledPointAllocPins pins the engine's allocation-free steady
// state: Rebind + Reset + RunContext on a warmed engine allocates a small
// constant number of times, independent of the event count.
func TestRecycledPointAllocPins(t *testing.T) {
	for _, name := range AlgorithmNames() {
		t.Run(name, func(t *testing.T) {
			p := newRecycledPoint(t, name)
			// Two warm-up points grow every lazily-sized buffer (event heap,
			// idle list, algorithm state) to its steady-state capacity.
			var res Result
			var err error
			for i := 0; i < 2; i++ {
				if res, err = p.run(); err != nil {
					t.Fatal(err)
				}
			}
			if !res.FullyExplored || !res.AllAtRoot || res.Events < 10000 {
				t.Fatalf("warm-up point did not run to completion: %+v", res)
			}
			got := testing.AllocsPerRun(5, func() {
				if _, perr := p.run(); perr != nil {
					err = perr
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: recycled point allocs = %.0f over %d events (pin %d)", name, got, res.Events, recycledPointAllocPin)
			if got > recycledPointAllocPin {
				t.Errorf("%s: recycled point allocated %.0f times, pin is %d", name, got, recycledPointAllocPin)
			}
		})
	}
}

// BenchmarkRecycledPoint times one recycled async-sweep point per
// algorithm; events/op is reported so the per-event cost can be read off.
func BenchmarkRecycledPoint(b *testing.B) {
	for _, name := range AlgorithmNames() {
		b.Run(name, func(b *testing.B) {
			p := newRecycledPoint(b, name)
			if _, err := p.run(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var events int64
			for i := 0; i < b.N; i++ {
				res, err := p.run()
				if err != nil {
					b.Fatal(err)
				}
				events += res.Events
			}
			b.ReportMetric(float64(events)/float64(b.N), "events/op")
		})
	}
}

// BenchmarkWidePoint times one Potential point on wide and deep trees
// (n = 20000, k = 64): a comb (spine of ~950 nodes, each with a 20-edge
// tooth), a spider (499 legs of 40) and a binary tree. A slot lookup or a
// discovery whose cost grows with the frontier, a node's degree or the
// depth shows up here long before it does on the async-sweep shape.
func BenchmarkWidePoint(b *testing.B) {
	for _, f := range []tree.Family{tree.FamilyComb, tree.FamilySpider, tree.FamilyBinary} {
		b.Run(string(f), func(b *testing.B) {
			p := newPoint(b, "potential", f, 20000, 64)
			if _, err := p.run(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var events int64
			for i := 0; i < b.N; i++ {
				res, err := p.run()
				if err != nil {
					b.Fatal(err)
				}
				events += res.Events
			}
			b.ReportMetric(float64(events)/float64(b.N), "events/op")
		})
	}
}
