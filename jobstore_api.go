package bfdn

// This file is the facade over internal/jobstore (DESIGN.md S30): durable,
// resumable runs. A JobStore journals every completed sweep point to an
// append-only WAL and checkpoints long explorations with atomic snapshots;
// re-running the same plan against the same store resumes from what
// survived, and the byte-identity contract (per-point seeds derived from
// the point's original global index, algorithm Snapshot/Restore hooks)
// makes the merged output indistinguishable from an uninterrupted run.

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"

	"bfdn/internal/jobstore"
	"bfdn/internal/sim"
)

// JobStore is a persistent, crash-safe store of resumable jobs: sweeps,
// asynchronous sweeps, and checkpointed explorations. Jobs are
// content-addressed by their plan (jobstore.PlanID), so submitting the same
// work to the same store is the same job — the resume procedure is simply
// "run it again".
type JobStore struct {
	s *jobstore.Store
}

// OpenJobStore opens (creating if needed) a job store rooted at dir.
func OpenJobStore(dir string) (*JobStore, error) {
	s, err := jobstore.Open(dir)
	if err != nil {
		return nil, err
	}
	return &JobStore{s: s}, nil
}

// JobInfo summarizes one stored job.
type JobInfo = jobstore.Info

// Jobs lists the stored jobs, sorted by ID.
func (js *JobStore) Jobs() ([]JobInfo, error) { return js.s.Jobs() }

// Store exposes the underlying internal store for in-module consumers (the
// bfdnd daemon shares one store between its HTTP handlers and the sweep
// facade).
func (js *JobStore) Store() *jobstore.Store { return js.s }

// fingerprintPlan is the canonical JSON plan stored in a job's manifest when
// the caller did not supply plan bytes of its own: {"fingerprint":"<hex>"},
// the first 16 bytes of a hash over everything that determines the run's
// output.
func fingerprintPlan(sum []byte) []byte {
	return fmt.Appendf(nil, `{"fingerprint":"%x"}`, sum[:16])
}

// hashTree writes the tree's parent array — its full identity — into h.
func hashTree(h io.Writer, t *Tree) {
	parents := t.t.Parents()
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], uint32(len(parents)))
	h.Write(buf[:])
	for _, p := range parents {
		binary.LittleEndian.PutUint32(buf[:], uint32(p))
		h.Write(buf[:])
	}
}

// sweepPlanBytes derives the default plan identity of a sweep of the given
// kind: base seed, index base, and every point as hashPoint writes it.
func sweepPlanBytes[P any](kind string, points []P, baseSeed, indexBase uint64, hashPoint func(io.Writer, P)) []byte {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%d\x00%d\x00%d\x00", kind, baseSeed, indexBase, len(points))
	for _, p := range points {
		hashPoint(h, p)
	}
	return fingerprintPlan(h.Sum(nil))
}

// hashSweepPoint writes a round-engine point's identity: tree, k,
// algorithm and ℓ.
func hashSweepPoint(h io.Writer, p SweepPoint) {
	hashTree(h, p.Tree)
	fmt.Fprintf(h, "%d\x00%d\x00%d\x00", p.K, int(p.Algorithm), p.Ell)
}

// hashAsyncSweepPoint writes a continuous-time point's identity: tree,
// fleet speeds, algorithm and latency model.
func hashAsyncSweepPoint(h io.Writer, p AsyncSweepPoint) {
	hashTree(h, p.Tree)
	fmt.Fprintf(h, "%d\x00", len(p.Speeds))
	for _, s := range p.Speeds {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(s))
		h.Write(buf[:])
	}
	fmt.Fprintf(h, "%d\x00%s\x00", int(p.Algorithm), p.Latency)
}

// explorePlanBytes derives the plan identity of a checkpointed exploration:
// the tree, k, and every config knob that changes the run.
func explorePlanBytes(t *Tree, k int, cfg config) []byte {
	h := sha256.New()
	fmt.Fprintf(h, "explore\x00")
	hashTree(h, t)
	fmt.Fprintf(h, "%d\x00%d\x00%d\x00%d\x00%v\x00%d\x00",
		k, int(cfg.alg), cfg.ell, int(cfg.policy), cfg.shortcut, cfg.seed)
	return fingerprintPlan(h.Sum(nil))
}

// pointRecord is one WAL entry of a journaled sweep on either engine: the
// settled point's global index and its report (a Report or an AsyncReport).
// Only successes are journaled — failed points re-run deterministically on
// resume.
type pointRecord[Rep any] struct {
	T      string `json:"t"`
	I      int    `json:"i"`
	Report *Rep   `json:"report"`
}

// reportRecord is the terminal WAL entry of a checkpointed exploration.
type reportRecord struct {
	T      string  `json:"t"`
	Report *Report `json:"report"`
}

// runJournaled executes a sweep of n points against cfg's job store, under
// the plan cfg.plan: cached points are replayed from the WAL (in index
// order, before any fresh result), missing points run with their original
// global seed indices, and every fresh success is journaled before it is
// delivered. The job is marked done once every point has succeeded.
func runJournaled[Rep any](ctx context.Context, cfg *engineConfig, kind string, n int,
	exec sweepExec[Rep], settle func(int, Rep, error)) (SweepStats, error) {
	job, _, err := cfg.store.s.OpenOrCreate(kind, cfg.plan)
	if err != nil {
		return SweepStats{}, err
	}
	cached := make(map[int]*Rep)
	raws, err := job.Replay()
	if err != nil {
		return SweepStats{}, fmt.Errorf("bfdn: job %s: %w", job.ID(), err)
	}
	for _, raw := range raws {
		var rec pointRecord[Rep]
		if err := json.Unmarshal(raw, &rec); err != nil {
			return SweepStats{}, fmt.Errorf("bfdn: job %s: corrupt journal record: %w", job.ID(), err)
		}
		if rec.T == "point" && rec.I >= 0 && rec.I < n && rec.Report != nil {
			cached[rec.I] = rec.Report
		}
	}
	var (
		sel     []int
		seedIdx []uint64
	)
	for i := 0; i < n; i++ {
		if r, ok := cached[i]; ok {
			if settle != nil {
				settle(i, *r, nil)
			}
			continue
		}
		sel = append(sel, i)
		seedIdx = append(seedIdx, cfg.opt.IndexBase+uint64(i))
	}
	if len(sel) == 0 {
		if err := job.MarkDone(); err != nil {
			return SweepStats{}, err
		}
		return SweepStats{}, nil
	}
	opt := cfg.opt
	opt.SeedIndices = seedIdx
	var mu sync.Mutex
	var journalErr error
	stats := convertSweepStats(exec(ctx, opt, sel, func(i int, rep Rep, err error) {
		if err == nil {
			if err := job.Append(pointRecord[Rep]{T: "point", I: i, Report: &rep}); err != nil {
				mu.Lock()
				if journalErr == nil {
					journalErr = err
				}
				mu.Unlock()
			}
		}
		if settle != nil {
			settle(i, rep, err)
		}
	}))
	if journalErr != nil {
		return stats, fmt.Errorf("bfdn: job %s: journal append: %w", job.ID(), journalErr)
	}
	if stats.Errors == 0 {
		if err := job.MarkDone(); err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// exploreCheckpointed is the WithCheckpoint path of ExploreContext: restore
// the latest snapshot if one exists, run with periodic checkpointing, and
// journal the final report so a completed job replays without simulating.
func exploreCheckpointed(ctx context.Context, t *Tree, k int, cfg config) (*Report, error) {
	job, _, err := cfg.store.s.OpenOrCreate("explore", explorePlanBytes(t, k, cfg))
	if err != nil {
		return nil, err
	}
	if job.IsDone() {
		raws, err := job.Replay()
		if err != nil {
			return nil, fmt.Errorf("bfdn: job %s: %w", job.ID(), err)
		}
		for i := len(raws) - 1; i >= 0; i-- {
			var rec reportRecord
			if err := json.Unmarshal(raws[i], &rec); err == nil && rec.T == "report" && rec.Report != nil {
				return rec.Report, nil
			}
		}
		return nil, fmt.Errorf("bfdn: job %s: done but no report in journal", job.ID())
	}
	alg, bound, err := newSimAlgorithm(t, k, cfg)
	if err != nil {
		return nil, err
	}
	w, err := newWorld(t, k, cfg)
	if err != nil {
		return nil, err
	}
	var events []sim.ExploreEvent
	if state, ok, err := job.LoadSnapshot(); err != nil {
		return nil, fmt.Errorf("bfdn: job %s: %w", job.ID(), err)
	} else if ok {
		events, err = sim.RestoreCheckpoint(state, w, alg)
		if err != nil {
			return nil, fmt.Errorf("bfdn: job %s: %w", job.ID(), err)
		}
	}
	every := cfg.ckptEvery
	if every <= 0 {
		every = 1024
	}
	res, err := sim.RunCheckpointedContext(ctx, w, alg, 0, events, every, job.SaveSnapshot)
	if err != nil {
		return nil, err
	}
	rep := simReport(t, k, res, bound)
	if err := job.Append(reportRecord{T: "report", Report: &rep}); err != nil {
		return nil, fmt.Errorf("bfdn: job %s: journal append: %w", job.ID(), err)
	}
	if err := job.MarkDone(); err != nil {
		return nil, err
	}
	return &rep, nil
}
