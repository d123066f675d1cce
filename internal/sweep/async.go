package sweep

import (
	"context"
	"fmt"

	"bfdn/internal/async"
	"bfdn/internal/tree"
)

// AsyncPoint is one independent continuous-time run of an asynchronous
// sweep grid: (algorithm, tree, fleet, latency) with the point's event
// stream seeded from the sweep's base seed and index exactly like
// synchronous points — the same splitmix64/IndexBase scheme, so asynchronous
// sweeps are byte-identical at any worker count and under any sharding.
type AsyncPoint struct {
	// Tree is the hidden exploration target; immutable, so one *tree.Tree
	// may back any number of points.
	Tree *tree.Tree
	// Speeds is the fleet: speeds[i] > 0 is robot i's edge-traversal rate.
	Speeds []float64
	// Algorithm names the decision strategy (async.NewNamedAlgorithm):
	// "bfdn" or "potential".
	Algorithm string
	// Latency is the traversal-time model spec (async.ParseLatency):
	// "constant" (or empty), "jitter:F", "pareto:A".
	Latency string
	// MaxEvents caps the event loop; ≤ 0 selects the engine's generous
	// default.
	MaxEvents int64
}

// AsyncResult is the outcome of one asynchronous point.
type AsyncResult struct {
	// Point is the index into the input slice.
	Point int
	// Seed is the derived per-point seed (DeriveSeed of base and index); the
	// engine's latency stream is seeded with it.
	Seed uint64
	async.Result
	// Err is non-nil when the point could not run; the other points are
	// unaffected.
	Err error
}

// AsyncOptions configure RunAsync; wire an async engine's Recorder with
// NewNamedRecorder to keep its metric families separate.
type AsyncOptions = RunOptions[AsyncResult]

// RunAsync executes all asynchronous points on a worker pool and returns
// one AsyncResult per point, in point order. Failures are per-point;
// RunAsync itself never fails. Each worker recycles one async.Engine and
// one algorithm instance per algorithm name across the points it executes
// (Engine.Reset / Algorithm.Reset), the asynchronous face of the engine's
// world-reuse contract.
func RunAsync(points []AsyncPoint, opt AsyncOptions) ([]AsyncResult, Stats) {
	return RunAsyncContext(context.Background(), points, opt)
}

// RunAsyncContext is RunAsync with cooperative cancellation: the context is
// checked before each point starts and every 128 events inside a running
// one (async.Engine.RunContext). Points finished before cancellation keep
// their results; every other point carries the context's error in Err.
func RunAsyncContext(ctx context.Context, points []AsyncPoint, opt AsyncOptions) ([]AsyncResult, Stats) {
	results := make([]AsyncResult, len(points))
	var engines []*async.Engine
	var algs []map[string]async.Algorithm
	stats := runPool(ctx, len(points), opt.Workers, opt.Recorder, func(workers int) {
		engines = make([]*async.Engine, workers)
		algs = make([]map[string]async.Algorithm, workers)
	}, func(pctx context.Context, wk, i int, canceled bool) bool {
		if canceled {
			results[i] = AsyncResult{Point: i, Seed: DeriveSeed(opt.BaseSeed, opt.seedIndex(i)),
				Err: fmt.Errorf("sweep: async point %d: %w", i, ctx.Err())}
		} else {
			if algs[wk] == nil {
				algs[wk] = make(map[string]async.Algorithm)
			}
			results[i] = runAsyncPoint(pctx, &engines[wk], algs[wk], points[i], i, opt)
		}
		return results[i].Err != nil
	}, func(i int) {
		if opt.OnResult != nil {
			opt.OnResult(results[i])
		}
	})
	return results, stats
}

// runAsyncPoint executes one point on the worker's recycled engine. engine
// is the worker-local slot (nil before the first point); cache holds the
// worker's algorithm instances by name so grids that interleave algorithms
// still reuse both.
func runAsyncPoint(ctx context.Context, engine **async.Engine, cache map[string]async.Algorithm,
	p AsyncPoint, index int, opt AsyncOptions) AsyncResult {
	res := AsyncResult{Point: index, Seed: DeriveSeed(opt.BaseSeed, opt.seedIndex(index))}
	fail := func(err error) AsyncResult {
		res.Err = fmt.Errorf("sweep: async point %d: %w", index, err)
		return res
	}
	if p.Tree == nil {
		res.Err = fmt.Errorf("sweep: async point %d: nil tree", index)
		return res
	}
	alg := cache[p.Algorithm]
	if alg == nil {
		a, err := async.NewNamedAlgorithm(p.Algorithm)
		if err != nil {
			return fail(err)
		}
		alg = a
		cache[p.Algorithm] = alg
	}
	lat, err := async.ParseLatency(p.Latency)
	if err != nil {
		return fail(err)
	}
	seed := int64(res.Seed)
	e := *engine
	if e == nil {
		ne, err := async.NewEngine(p.Tree, p.Speeds,
			async.WithAlgorithm(alg), async.WithLatency(lat), async.WithSeed(seed))
		if err != nil {
			return fail(err)
		}
		e = ne
		*engine = e
	} else {
		e.Rebind(alg, lat)
		if err := e.Reset(p.Tree, p.Speeds, seed); err != nil {
			return fail(err)
		}
	}
	r, err := e.RunContext(ctx, p.MaxEvents)
	if err != nil {
		return fail(err)
	}
	res.Result = r
	return res
}
