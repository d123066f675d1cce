package main

import (
	"fmt"
	"math/rand"

	"bfdn/internal/bounds"
	"bfdn/internal/core"
	"bfdn/internal/cte"
	"bfdn/internal/levelwise"
	"bfdn/internal/offline"
	"bfdn/internal/potential"
	"bfdn/internal/recursive"
	"bfdn/internal/sim"
	"bfdn/internal/treemining"
)

// algSpec is how the benchmark builds one of the seven algorithms, the same
// way the bfdn facade does for bfdnd: its layer (internal/ package), the
// constructor, the sweep engine's recycle hook (nil: always construct), and
// the closed-form guarantee reported as the bound.
type algSpec struct {
	layer   string
	make    func(k int) (sim.Algorithm, error)
	recycle func(prev sim.Algorithm, k int, rng *rand.Rand) sim.Algorithm
	bound   func(n, depth, k, maxDeg int) float64
}

// defaultEll is the facade's default ℓ for bfdnl.
const defaultEll = 2

var algSpecs = map[string]algSpec{
	"bfdn": {
		layer: "core",
		make: func(k int) (sim.Algorithm, error) {
			return core.NewAlgorithm(k, core.WithPolicy(core.LeastLoaded)), nil
		},
		recycle: core.RecycleAlgorithm(core.WithPolicy(core.LeastLoaded)),
		bound:   bounds.Theorem1,
	},
	"bfdnl": {
		layer: "recursive",
		make:  func(k int) (sim.Algorithm, error) { return recursive.NewBFDNL(k, defaultEll) },
		bound: func(n, d, k, maxDeg int) float64 { return bounds.Theorem10(n, d, k, maxDeg, defaultEll) },
	},
	"cte": {
		layer:   "cte",
		make:    func(k int) (sim.Algorithm, error) { return cte.New(k), nil },
		recycle: cte.Recycle,
		bound:   func(n, d, k, _ int) float64 { return bounds.GuaranteeCTE(float64(n), float64(d), k) },
	},
	"dfs": {
		layer: "offline",
		make:  func(int) (sim.Algorithm, error) { return &offline.DFS{}, nil },
		bound: func(n, _, _, _ int) float64 { return float64(2 * (n - 1)) },
	},
	"levelwise": {
		layer: "levelwise",
		make:  func(k int) (sim.Algorithm, error) { return levelwise.New(k), nil },
		bound: func(n, d, k, _ int) float64 { return levelwise.Bound(n, d, k) },
	},
	"treemining": {
		layer:   "treemining",
		make:    func(k int) (sim.Algorithm, error) { return treemining.New(k), nil },
		recycle: treemining.Recycle,
		bound:   func(n, d, k, _ int) float64 { return treemining.Bound(n, d, k) },
	},
	"potential": {
		layer:   "potential",
		make:    func(k int) (sim.Algorithm, error) { return potential.New(k), nil },
		recycle: potential.Recycle,
		bound:   func(n, d, k, _ int) float64 { return potential.Bound(n, d, k) },
	},
}

// roundStats is what a run's round loop observed.
type roundStats struct {
	sim.Result
	reanchors int // BFDN only: Reanchor calls over the run
}

// runRounds drives alg on w to termination exactly as sim.RunContext does —
// SelectMoves, then Apply, until a round in which no robot moves, under the
// same round cap — timing each call into a folded span under parent when tr
// is non-nil. The benchmark checks its results against bfdnd's, so the loop
// cannot drift from the engine's.
func runRounds(tr *Tracer, trace, parent int64, w *sim.World, alg sim.Algorithm, layer string) (roundStats, error) {
	n, d := int64(w.Tree().N()), int64(w.Tree().Depth())
	maxRounds := 3*n*d + 2*d + 4
	sel := fold{name: layer + ".SelectMoves"}
	app := fold{name: "sim.Apply"}
	defer func() {
		tr.flush(&sel, trace, parent)
		tr.flush(&app, trace, parent)
	}()
	var events []sim.ExploreEvent
	for int64(w.Round()) < maxRounds {
		t0 := tr.now()
		moves, err := alg.SelectMoves(w.View(), events)
		t1 := tr.now()
		if err != nil {
			return roundStats{}, fmt.Errorf("round %d: %w", w.Round(), err)
		}
		ev, anyMoved, err := w.Apply(moves)
		if tr != nil {
			t2 := tr.now()
			sel.add(t0, t1)
			app.add(t1, t2)
		}
		if err != nil {
			return roundStats{}, err
		}
		events = ev
		if !anyMoved {
			rs := roundStats{Result: sim.Result{Metrics: w.Metrics(),
				FullyExplored: w.FullyExplored(), AllAtRoot: w.AllAtRoot()}}
			if a, ok := alg.(*core.Algorithm); ok {
				for _, c := range a.Inner().Stats().ReanchorsPerDepth {
					rs.reanchors += c
				}
			}
			return rs, nil
		}
	}
	return roundStats{}, fmt.Errorf("%w (%d rounds)", sim.ErrRoundLimit, maxRounds)
}
