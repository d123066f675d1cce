package server

import (
	"context"
	"errors"

	"bfdn"
	"bfdn/internal/sweep"
)

// asyncSweepPointSpec is one continuous-time run of POST /v1/asyncsweep (the
// asynchronous engine behind bfdn.SweepAsync): a generated tree, a fleet of
// per-robot speeds, a decision strategy, and a latency model. The request
// follows the synchronous sweep contract: point i draws its latency
// randomness from (seed, indexBase+i), so shards of one logical grid
// reproduce the unsharded stream exactly.
type asyncSweepPointSpec struct {
	Family   string `json:"family"`
	N        int    `json:"n"`
	Depth    int    `json:"depth"`
	TreeSeed int64  `json:"treeSeed"`
	// Speeds is the fleet: speeds[i] > 0 is robot i's edge-traversal rate.
	// The fleet size takes the place of the synchronous k.
	Speeds []float64 `json:"speeds"`
	// Algorithm names the strategy ("bfdn" or "potential"; empty → "bfdn").
	Algorithm string `json:"algorithm"`
	// Latency names the traversal-time model ("constant" or empty,
	// "jitter:F", "pareto:A").
	Latency string `json:"latency"`
}

func (p asyncSweepPointSpec) treeKey() treeKey {
	return treeKey{p.Family, p.N, p.Depth, p.TreeSeed}
}

// asyncGrid is the continuous-time engine behind POST /v1/asyncsweep. Its
// recorder feeds the bfdnd_async_sweep_* families, leaving the synchronous
// bfdnd_sweep_* families untouched.
var asyncGrid = gridEngine[asyncSweepPointSpec, bfdn.AsyncSweepPoint, bfdn.AsyncReport]{
	kind:     "asyncsweep",
	recorder: func(m *metrics) *sweep.Recorder { return m.asyncSweep },
	point: func(p asyncSweepPointSpec, tree func() (*bfdn.Tree, error)) (bfdn.AsyncSweepPoint, error) {
		if len(p.Speeds) == 0 {
			return bfdn.AsyncSweepPoint{}, errors.New("need at least one robot speed")
		}
		alg, err := bfdn.ParseAsyncAlgorithm(p.Algorithm)
		if err != nil {
			return bfdn.AsyncSweepPoint{}, err
		}
		t, err := tree()
		return bfdn.AsyncSweepPoint{Tree: t, Speeds: p.Speeds, Algorithm: alg, Latency: p.Latency}, err
	},
	stream: func(ctx context.Context, points []bfdn.AsyncSweepPoint, workers int, seed int64,
		emit func(int, *bfdn.AsyncReport, error), opts ...bfdn.EngineOption) (bfdn.SweepStats, error) {
		return bfdn.SweepAsyncStream(ctx, points, workers, seed, func(i int, r bfdn.AsyncSweepResult) {
			emit(i, &r.Report, r.Err)
		}, opts...)
	},
}
