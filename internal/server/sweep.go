package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"bfdn"
	"bfdn/internal/sweep"
)

// gridRequest is the body of POST /v1/sweep and POST /v1/asyncsweep: a grid
// of independent runs on one engine, executed on the sweep engine and
// streamed back as JSONL, one line per point in point order, as points
// complete. S is the engine's point spec.
type gridRequest[S any] struct {
	// Seed scrambles the engine's deterministic per-point randomness.
	Seed int64 `json:"seed"`
	// IndexBase offsets per-point seed derivation: point i of this request
	// draws its randomness from (seed, indexBase+i). A distributed
	// coordinator (internal/dsweep) sets it to the shard's first global
	// index so sharded results match the unsharded run exactly.
	IndexBase int64 `json:"indexBase"`
	// TimeoutMS bounds the whole sweep (default/cap as for /v1/explore).
	TimeoutMS int64 `json:"timeoutMs"`
	Points    []S   `json:"points"`
}

// gridPlan is the canonical job-identity form of a grid request: the
// re-marshaled fields that determine the run's output, in fixed order, with
// the timeout excluded (operational, not identity). The bytes of
// json.Marshal(gridPlan{...}) are hashed into the job ID and stored
// verbatim in the job manifest, so POST /v1/resume can reconstruct the
// request from the manifest alone — and so job identity is stable across
// processes and bfdnd restarts.
type gridPlan[S any] struct {
	Seed      int64 `json:"seed"`
	IndexBase int64 `json:"indexBase"`
	Points    []S   `json:"points"`
}

// gridLine is one streamed JSONL record. Point lines carry exactly one of
// Report/Error; the final line has Point = -1, Done = true, and the engine
// stats.
type gridLine[Rep any] struct {
	Point  int    `json:"point"`
	Report *Rep   `json:"report,omitempty"`
	Error  string `json:"error,omitempty"`

	Done         bool    `json:"done,omitempty"`
	Points       int     `json:"points,omitempty"`
	PointsPerSec float64 `json:"pointsPerSec,omitempty"`
	Workers      int     `json:"workers,omitempty"`
}

// treeKey names a generated tree; grids routinely reuse one tree spec
// across many points, and trees are immutable, so identical keys share one.
type treeKey struct {
	family   string
	n, depth int
	seed     int64
}

// pointSpec is what the shared handler needs of an engine's point spec.
type pointSpec interface {
	treeKey() treeKey
}

// gridEngine is everything one engine contributes to the shared grid
// handler; the rest — request checks, tree dedup, plan marshal, ordered
// emit, replay accounting and the done line — is common.
type gridEngine[S pointSpec, P, Rep any] struct {
	// kind is the endpoint name, the job kind and the span suffix.
	kind string
	// recorder selects the engine's bfdnd_*sweep_* metric families.
	recorder func(*metrics) *sweep.Recorder
	// point validates spec and builds the facade point; tree builds (or
	// reuses) the spec's tree and is called only once the spec's own
	// fields have passed.
	point func(spec S, tree func() (*bfdn.Tree, error)) (P, error)
	// stream is the facade's streaming sweep for the engine.
	stream func(ctx context.Context, points []P, workers int, seed int64,
		emit func(i int, rep *Rep, err error), opts ...bfdn.EngineOption) (bfdn.SweepStats, error)
}

// handleGrid serves one engine's sweep endpoint.
func handleGrid[S pointSpec, P, Rep any](s *Server, e gridEngine[S, P, Rep]) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req gridRequest[S]
		if err := decodeJSON(w, r, &req); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		if len(req.Points) == 0 {
			writeError(w, http.StatusBadRequest, "need at least one point")
			return
		}
		if len(req.Points) > s.cfg.MaxPoints {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("sweep has %d points, limit is %d", len(req.Points), s.cfg.MaxPoints))
			return
		}
		if req.IndexBase < 0 {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("need indexBase ≥ 0, got %d", req.IndexBase))
			return
		}
		ctx, cancel := s.requestContext(r, req.TimeoutMS)
		defer cancel()
		// The job context carries the job span (when tracing is on), so the
		// engine's worker and point spans land under this job.
		s.runJob(ctx, w, r, e.kind, func(ctx context.Context) {
			gridJob(ctx, s, w, e, req, nil)
		})
	}
}

// gridJob is the body of a grid job, shared between the sweep endpoints
// and POST /v1/resume, which rebuilds req from a stored job and passes that
// job's plan bytes so the run hits the stored job by construction. A nil
// plan is derived from req. It runs with the execution slot held.
func gridJob[S pointSpec, P, Rep any](ctx context.Context, s *Server, w http.ResponseWriter,
	e gridEngine[S, P, Rep], req gridRequest[S], plan []byte) {
	points := make([]P, len(req.Points))
	trees := make(map[treeKey]*bfdn.Tree)
	for i, spec := range req.Points {
		p, err := e.point(spec, func() (*bfdn.Tree, error) {
			key := spec.treeKey()
			if t, ok := trees[key]; ok {
				return t, nil
			}
			t, err := s.buildTree(key.family, key.n, key.depth, key.seed, nil)
			if err == nil {
				trees[key] = t
			}
			return t, err
		})
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("point %d: %v", i, err))
			return
		}
		points[i] = p
	}

	// The engine recorder folds this sweep's point-latency histogram and
	// totals into the server registry when the run completes; totals stay
	// monotonically consistent under any number of concurrent sweeps.
	opts := []bfdn.EngineOption{
		bfdn.WithSweepRecorder(e.recorder(s.m)),
		bfdn.WithSeedIndexBase(uint64(req.IndexBase)),
	}
	if s.cfg.Store != nil {
		// The canonical re-marshaled request keys the persistent job, so
		// resubmitting the same sweep resumes its journal instead of
		// recomputing finished points.
		if plan == nil {
			var err error
			plan, err = json.Marshal(gridPlan[S]{Seed: req.Seed, IndexBase: req.IndexBase, Points: req.Points})
			if err != nil {
				writeError(w, http.StatusInternalServerError, err.Error())
				return
			}
		}
		opts = append(opts, bfdn.WithJobStorePlan(s.cfg.Store, plan))
	}

	// The stream emits lines strictly in point order (orderedStream), so
	// the response is byte-identical at any worker count. Headers are set
	// now but only flushed on the first body write, so a validation
	// failure inside the facade (before any point has run) can still turn
	// into a clean 400 below.
	stream := newOrderedStream(w)
	emit := func(i int, rep *Rep, err error) {
		line := gridLine[Rep]{Point: i}
		if err != nil {
			line.Error = err.Error()
		} else {
			line.Report = rep
		}
		stream.emit(i, line)
	}
	stats, err := e.stream(ctx, points, s.cfg.SweepWorkers, req.Seed, emit, opts...)
	if err != nil {
		// The facade validates every point before running anything, so on
		// error no line has been written and the status is still ours.
		w.Header().Del("X-Accel-Buffering")
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if s.cfg.Store != nil && stats.Points < len(points) {
		// Journal hits: stats counts simulated points only, so the gap is
		// what the store answered.
		s.m.jsReplayed.Add(uint64(len(points) - stats.Points))
	}
	stream.finish(gridLine[Rep]{Point: -1, Done: true, Points: stats.Points,
		PointsPerSec: stats.PointsPerSec, Workers: stats.Workers})
}

// sweepPointSpec is one synchronous run of POST /v1/sweep: a generated
// tree, k robots and an algorithm.
type sweepPointSpec struct {
	Family    string `json:"family"`
	N         int    `json:"n"`
	Depth     int    `json:"depth"`
	TreeSeed  int64  `json:"treeSeed"`
	K         int    `json:"k"`
	Algorithm string `json:"algorithm"`
	Ell       int    `json:"ell"`
}

func (p sweepPointSpec) treeKey() treeKey { return treeKey{p.Family, p.N, p.Depth, p.TreeSeed} }

// syncGrid is the round engine behind POST /v1/sweep.
var syncGrid = gridEngine[sweepPointSpec, bfdn.SweepPoint, bfdn.Report]{
	kind:     "sweep",
	recorder: func(m *metrics) *sweep.Recorder { return m.sweep },
	point: func(p sweepPointSpec, tree func() (*bfdn.Tree, error)) (bfdn.SweepPoint, error) {
		if p.K < 1 {
			return bfdn.SweepPoint{}, errors.New("need k ≥ 1")
		}
		alg, err := bfdn.ParseAlgorithm(p.Algorithm)
		if err != nil {
			return bfdn.SweepPoint{}, err
		}
		t, err := tree()
		return bfdn.SweepPoint{Tree: t, K: p.K, Algorithm: alg, Ell: p.Ell}, err
	},
	stream: func(ctx context.Context, points []bfdn.SweepPoint, workers int, seed int64,
		emit func(int, *bfdn.Report, error), opts ...bfdn.EngineOption) (bfdn.SweepStats, error) {
		return bfdn.SweepStream(ctx, points, workers, seed, func(i int, r bfdn.SweepResult) {
			emit(i, &r.Report, r.Err)
		}, opts...)
	},
}
