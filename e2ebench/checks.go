package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"

	"bfdn"
)

// checkAsyncReport validates a continuous-time report: finished, and the
// makespan no shorter than the offline floor.
func checkAsyncReport(_ int, raw json.RawMessage) error {
	var rep bfdn.AsyncReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		return err
	}
	if !rep.FullyExplored || !rep.AllAtRoot {
		return fmt.Errorf("run did not finish")
	}
	if rep.Floor <= 0 || rep.Makespan < rep.Floor {
		return fmt.Errorf("makespan %.3f below the floor %.3f", rep.Makespan, rep.Floor)
	}
	return nil
}

// pointLine is a sweep stream's point line, field for field as bfdnd
// writes it.
type pointLine struct {
	Point  int          `json:"point"`
	Report *bfdn.Report `json:"report,omitempty"`
	Error  string       `json:"error,omitempty"`
}

// treeCache builds each distinct generated tree of a plan once, as bfdnd
// does per request.
type treeCache map[specKey]*bfdn.Tree

func (c treeCache) get(family string, n, depth int, seed int64) (*bfdn.Tree, error) {
	k := specKey{family, n, depth, seed}
	if t, ok := c[k]; ok {
		return t, nil
	}
	t, err := bfdn.GenerateTree(bfdn.Family(family), n, depth, seed)
	if err != nil {
		return nil, err
	}
	c[k] = t
	return t, nil
}

// localSweepHash runs a sweep plan through bfdn.Sweep in this process and
// hashes its point lines serialized the way bfdnd streams them.
func localSweepHash(ctx context.Context, plan sweepRequest) ([32]byte, error) {
	trees := treeCache{}
	points := make([]bfdn.SweepPoint, len(plan.Points))
	for i, p := range plan.Points {
		t, err := trees.get(p.Family, p.N, p.Depth, p.TreeSeed)
		if err != nil {
			return [32]byte{}, err
		}
		alg, err := bfdn.ParseAlgorithm(p.Algorithm)
		if err != nil {
			return [32]byte{}, err
		}
		points[i] = bfdn.SweepPoint{Tree: t, K: p.K, Algorithm: alg, Ell: p.Ell}
	}
	results, _, err := bfdn.SweepContext(ctx, points, 2, plan.Seed)
	if err != nil {
		return [32]byte{}, err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i, r := range results {
		if r.Err != nil {
			return [32]byte{}, fmt.Errorf("point %d: %w", i, r.Err)
		}
		rep := r.Report
		if err := enc.Encode(pointLine{Point: i, Report: &rep}); err != nil {
			return [32]byte{}, err
		}
	}
	return sha256.Sum256(buf.Bytes()), nil
}

// localAsyncHash is localSweepHash for an async sweep plan.
func localAsyncHash(ctx context.Context, plan asyncRequest) ([32]byte, error) {
	trees := treeCache{}
	points := make([]bfdn.AsyncSweepPoint, len(plan.Points))
	for i, p := range plan.Points {
		t, err := trees.get(p.Family, p.N, p.Depth, p.TreeSeed)
		if err != nil {
			return [32]byte{}, err
		}
		alg, err := bfdn.ParseAsyncAlgorithm(p.Algorithm)
		if err != nil {
			return [32]byte{}, err
		}
		points[i] = bfdn.AsyncSweepPoint{Tree: t, Speeds: p.Speeds, Algorithm: alg, Latency: p.Latency}
	}
	results, _, err := bfdn.SweepAsyncContext(ctx, points, 2, plan.Seed)
	if err != nil {
		return [32]byte{}, err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i, r := range results {
		if r.Err != nil {
			return [32]byte{}, fmt.Errorf("point %d: %w", i, r.Err)
		}
		rep := r.Report
		if err := enc.Encode(asyncLine{Point: i, Report: &rep}); err != nil {
			return [32]byte{}, err
		}
	}
	return sha256.Sum256(buf.Bytes()), nil
}

// localExploreHash runs one explore input through bfdn.Explore in this
// process and hashes its report as bfdnd encodes it.
func localExploreHash(in exploreInput) ([32]byte, error) {
	var t *bfdn.Tree
	var err error
	if in.req.Parents != nil {
		t, err = bfdn.NewTree(in.req.Parents)
	} else {
		t, err = bfdn.GenerateTree(bfdn.Family(in.req.Family), in.req.N, in.req.Depth, in.req.TreeSeed)
	}
	if err != nil {
		return [32]byte{}, err
	}
	alg, err := bfdn.ParseAlgorithm(in.req.Algorithm)
	if err != nil {
		return [32]byte{}, err
	}
	rep, err := bfdn.Explore(t, in.req.K, bfdn.WithAlgorithm(alg))
	if err != nil {
		return [32]byte{}, err
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(b), nil
}

// referenceHash is the hash a correct reply to input key must have, from a
// run of the same input through the bfdn library in this process: an
// explore input's report, a sweep's or async sweep's point lines, or a
// fleet-journal iteration's merged lines.
func (s *session) referenceHash(ctx context.Context, su *setup, key int) ([32]byte, error) {
	switch s.wl.name {
	case "explore-large":
		return localExploreHash(su.explore[key])
	case "sweep-grid":
		return localSweepHash(ctx, su.grid)
	case "async-sweep":
		return localAsyncHash(ctx, su.async)
	default:
		plan := fleetPlan(s.seed, key)
		return localSweepHash(ctx, sweepRequest{Seed: plan.Seed, Points: plan.Points})
	}
}

// checkOutputs compares every reply the results hold with the library's
// own answer to the same input.
func (s *session) checkOutputs(ctx context.Context, su *setup, results ...*e2eResult) {
	want := map[int][32]byte{}
	for _, res := range results {
		for key, got := range res.hashes {
			w, ok := want[key]
			if !ok {
				var err error
				if w, err = s.referenceHash(ctx, su, key); err != nil {
					res.fail(1, "input %d: local reference run: %v", key, err)
					continue
				}
				want[key] = w
			}
			if got != w {
				res.fail(res.replies[key]*res.opsPerReply, "input %d: %d replies differ from a local bfdn run of the same input",
					key, res.replies[key])
			}
		}
	}
}

// counterDeltas are the daemons' own counters over a run, summed over the
// fleet.
type counterDeltas struct {
	requests, rejected, sweepPoints, walAppends, replayed float64
}

// endpoint is the bfdnd endpoint label a workload's requests land on.
func (wl workload) endpoint() string {
	switch wl.name {
	case "explore-large":
		return "explore"
	case "async-sweep":
		return "asyncsweep"
	default:
		return "sweep"
	}
}

func deltas(wl workload, before, after map[string]float64) counterDeltas {
	d := func(name string) float64 { return after[name] - before[name] }
	points := "bfdnd_sweep_points_total"
	if wl.name == "async-sweep" {
		points = "bfdnd_async_sweep_points_total"
	}
	return counterDeltas{
		requests:    d(fmt.Sprintf("bfdnd_requests_total{endpoint=%q}", wl.endpoint())),
		rejected:    d("bfdnd_jobs_rejected_total"),
		sweepPoints: d(points),
		walAppends:  d("bfdnd_jobstore_wal_appends_total"),
		replayed:    d("bfdnd_jobstore_replayed_points_total"),
	}
}

// crossCheck compares the daemons' counter deltas with what the client sent
// and received, returning every mismatch (nil when all agree).
func crossCheck(wl workload, before, after map[string]float64, res *e2eResult) []string {
	got := deltas(wl, before, after)
	want := counterDeltas{requests: float64(res.sent)}
	switch wl.name {
	case "sweep-grid", "async-sweep":
		want.sweepPoints = float64(res.points)
	case "fleet-journal":
		// Workers see shard requests and run every write-pass point once;
		// read passes never reach them. Only the coordinator journals.
		want.requests = float64(res.shards)
		want.sweepPoints = float64(res.points)
	}
	var bad []string
	check := func(name string, g, w float64) {
		if g != w {
			bad = append(bad, fmt.Sprintf("%s: daemons counted %.0f, client expected %.0f", name, g, w))
		}
	}
	check("bfdnd_requests_total", got.requests, want.requests)
	check("bfdnd_jobs_rejected_total", got.rejected, 0)
	check("bfdnd_sweep_points_total", got.sweepPoints, want.sweepPoints)
	check("bfdnd_jobstore_wal_appends_total", got.walAppends, want.walAppends)
	check("bfdnd_jobstore_replayed_points_total", got.replayed, 0)
	return bad
}
