package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"bfdn"
	"bfdn/internal/async"
	"bfdn/internal/bounds"
	"bfdn/internal/dsweep"
	"bfdn/internal/jobstore"
	"bfdn/internal/obs/tracing"
	"bfdn/internal/sim"
	"bfdn/internal/sweep"
	"bfdn/internal/tree"
)

// phase1Count is how many requests (fleet-journal: iterations) the traced
// run sends through the daemons before it calls the layers directly. It is
// a count, not a time, so the scraped counters repeat exactly per seed.
var phase1Count = map[string]int{
	"explore-large": 40,
	"sweep-grid":    2,
	"fleet-journal": 2,
	"async-sweep":   2,
}

// maxPassPairs caps the traced and untraced direct passes of a run: three
// pairs give the medians enough samples, and more would only add disk load
// (each fleet-journal pass makes 2016 fsynced appends) for the workloads
// measured after it.
const maxPassPairs = 3

// exactCounts are the per-layer metrics that must repeat exactly on every
// pass and every run of one seed.
var exactCounts = []string{"tree.nodes", "sim.rounds", "sim.moves", "core.reanchors",
	"async.events", "jobstore.appends", "jobstore.replay_records"}

// passOut is what one pass over a workload's inputs measured outside spans.
type passOut struct {
	counts map[string]float64 // exact counts, identical on every pass
	wall   time.Duration      // the whole pass
	// engine is the world-plus-algorithm time summed over points and
	// parallel is the wall time of sweep.RunContext on the same points
	// (sweep-grid only).
	engine, parallel time.Duration
	// fleet-journal only: write- and read-pass walls, dsweep stats of the
	// write pass, and the read pass's replay hit ratio.
	writeMs, readMs []float64
	stats           dsweep.Stats
	hitRatio        float64
}

func newPassOut() *passOut { return &passOut{counts: map[string]float64{}} }

// traced is the traced run: a fixed count of requests through the daemons
// (for the daemons' own counters and the end-to-end request time), then
// passes over the same inputs that call each layer directly, alternating a
// traced pass with an untraced one so the tracing overhead is measured.
func (s *session) traced(ctx context.Context) (result, error) {
	su, _, err := s.setUp(ctx)
	if err != nil {
		return result{}, err
	}
	defer stopFleet(su.fleet)
	warm := s.warmUp(ctx, su)
	before, err := scrapeFleet(ctx, s.client, su.fleet)
	if err != nil {
		return result{}, err
	}
	p1 := s.loop(ctx, su, loopLimit{count: phase1Count[s.wl.name]})
	after, err := scrapeFleet(ctx, s.client, su.fleet)
	if err != nil {
		return result{}, err
	}
	s.checkOutputs(ctx, su, warm, p1)
	printFailures(warm)
	printFailures(p1)
	bad := crossCheck(s.wl, before, after, p1)

	m := map[string]float64{}
	for _, pl := range perLayer {
		m[pl.name] = 0
	}
	dl := deltas(s.wl, before, after)
	m["server.requests"] = dl.requests
	m["server.rejected"] = dl.rejected
	m["server.sweep_points"] = dl.sweepPoints
	m["jobstore.wal_appends"] = dl.walAppends
	m["jobstore.replayed_points"] = dl.replayed
	m["server.response_bytes"] = median(p1.bytes)
	switch s.wl.name {
	case "sweep-grid", "fleet-journal":
		m["server.queue_wait_ms_p50"] = 1e3 * histQuantile(before, after, "bfdnd_sweep_queue_wait_seconds", 0.5)
	case "async-sweep":
		m["server.queue_wait_ms_p50"] = 1e3 * histQuantile(before, after, "bfdnd_async_sweep_queue_wait_seconds", 0.5)
	}

	pass := s.passFunc(ctx, su, p1)
	tr := newTracer()
	var tracedOut, plainOut []*passOut
	var passErr error
	deadline := time.Now().Add(s.seconds)
	for i := 0; i == 0 || i < maxPassPairs && time.Now().Before(deadline) && ctx.Err() == nil; i++ {
		t, err := pass(tr, 2*i)
		if err == nil {
			tracedOut = append(tracedOut, t)
			var p *passOut
			if p, err = pass(nil, 2*i+1); err == nil {
				plainOut = append(plainOut, p)
			}
		}
		if err != nil {
			passErr = err
			break
		}
	}
	spans := tr.Spans()
	if err := writeJSONL(s.spanFile(), spans); err != nil {
		return result{}, err
	}
	if passErr == nil {
		passErr = sameCounts(append(append([]*passOut(nil), tracedOut...), plainOut...))
	}
	if passErr != nil {
		fmt.Println("FAIL", passErr)
	} else {
		s.layerMetrics(m, spans, tracedOut, plainOut, p1)
	}
	if bad != nil {
		fmt.Printf("FAIL counters: %v\n", bad)
	}
	printLayers(spans)
	fmt.Printf("spans: %d written to %s\n", len(spans), s.spanFile())

	out := result{Attempted: warm.attempted + p1.attempted + 1, Failed: warm.failed + p1.failed,
		Metrics: map[string]metric{}}
	if passErr != nil {
		out.Failed++
	}
	for _, pl := range perLayer {
		out.Metrics[pl.name] = metric{m[pl.name], pl.unit}
	}
	out.Correct = out.Failed == 0 && bad == nil
	return out, nil
}

// sameCounts fails when any pass's exact counts differ from the first's.
func sameCounts(passes []*passOut) error {
	for _, p := range passes[1:] {
		for _, name := range exactCounts {
			if p.counts[name] != passes[0].counts[name] {
				return fmt.Errorf("%s differs between passes over the same inputs: %.0f and %.0f",
					name, passes[0].counts[name], p.counts[name])
			}
		}
	}
	return nil
}

// passFunc returns the workload's pass: one traversal of its inputs that
// calls the layers directly, traced when tr is non-nil.
func (s *session) passFunc(ctx context.Context, su *setup, p1 *e2eResult) func(tr *Tracer, pass int) (*passOut, error) {
	switch s.wl.name {
	case "explore-large":
		return func(tr *Tracer, pass int) (*passOut, error) { return explorePass(tr, pass, su.explore, p1) }
	case "sweep-grid":
		return func(tr *Tracer, pass int) (*passOut, error) { return gridPass(ctx, tr, pass, su.grid, p1.hashes[0]) }
	case "async-sweep":
		return func(tr *Tracer, pass int) (*passOut, error) { return asyncPass(tr, pass, su.async, p1.hashes[0]) }
	default:
		f := newFleetRun(s.seed, su.fleet, su.store, s.client)
		return func(tr *Tracer, pass int) (*passOut, error) { return f.tracedPass(ctx, tr, pass, s.dir) }
	}
}

// syncReport builds the report bfdnd returns for a synchronous run.
func syncReport(t *tree.Tree, k int, spec algSpec, rs roundStats) bfdn.Report {
	return bfdn.Report{
		Rounds:            rs.Rounds,
		Moves:             rs.Moves,
		EdgeExplorations:  rs.EdgeExplorations,
		Bound:             spec.bound(t.N(), t.Depth(), k, t.MaxDegree()),
		OfflineLowerBound: bounds.OfflineLB(t.N(), t.Depth(), k),
		FullyExplored:     rs.FullyExplored,
		AllAtRoot:         rs.AllAtRoot,
	}
}

// traceID numbers a pass's requests or points uniquely within the run.
func traceID(pass, i int) int64 { return int64(pass)<<32 | int64(i+1) }

// explorePass serves every explore input once, the way bfdnd does: decode
// an uploaded body, build the tree, build the world and the algorithm, run
// the rounds, encode the report. Each report must equal bfdnd's for the
// same input.
func explorePass(tr *Tracer, pass int, inputs []exploreInput, p1 *e2eResult) (*passOut, error) {
	out := newPassOut()
	start := time.Now()
	spec := algSpecs["bfdn"]
	for i, in := range inputs {
		trace := traceID(pass, i)
		root := tr.start("bench.request", trace, 0)
		var t *tree.Tree
		var err error
		if in.req.Parents == nil {
			sp := tr.start("tree.Generate", trace, root.id())
			t, err = tree.Generate(tree.Family(in.req.Family), in.req.N, in.req.Depth,
				rand.New(rand.NewSource(in.req.TreeSeed)))
			sp.end()
		} else {
			sp := tr.start("server.decode", trace, root.id())
			var req exploreRequest
			err = json.Unmarshal(in.body, &req)
			sp.end()
			if err == nil {
				sp = tr.start("tree.FromParents", trace, root.id())
				t, err = tree.FromParents(req.Parents)
				sp.end()
			}
		}
		if err != nil {
			return nil, fmt.Errorf("input %d: %w", i, err)
		}
		sp := tr.start("sim.NewWorld", trace, root.id())
		w, err := sim.NewWorld(t, in.req.K)
		sp.end()
		if err != nil {
			return nil, err
		}
		sp = tr.start(spec.layer+".New", trace, root.id())
		alg, err := spec.make(in.req.K)
		sp.end()
		if err != nil {
			return nil, err
		}
		rs, err := runRounds(tr, trace, root.id(), w, alg, spec.layer)
		if err != nil {
			return nil, fmt.Errorf("input %d: %w", i, err)
		}
		rep := syncReport(t, in.req.K, spec, rs)
		sp = tr.start("server.encode", trace, root.id())
		b, err := json.Marshal(rep)
		sp.end()
		root.end()
		if err != nil {
			return nil, err
		}
		if want, ok := p1.reports[i]; ok && !bytes.Equal(b, want) {
			return nil, fmt.Errorf("input %d: direct run reports %s, bfdnd reported %s", i, b, want)
		}
		out.counts["tree.nodes"] += float64(t.N())
		out.counts["sim.rounds"] += float64(rs.Rounds)
		out.counts["sim.moves"] += float64(rs.Moves)
		out.counts["core.reanchors"] += float64(rs.reanchors)
	}
	out.wall = time.Since(start)
	return out, nil
}

// specKey names a generated tree.
type specKey struct {
	family   string
	n, depth int
	seed     int64
}

// gridPass runs the sweep-grid plan twice in this process: first point by
// point on one goroutine, timing world reset, algorithm construction and
// each round as the sweep engine's worker performs them; then through
// sweep.RunContext with bfdnd's two workers. Both must reproduce bfdnd's
// stream byte for byte (want is its hash).
func gridPass(ctx context.Context, tr *Tracer, pass int, plan sweepRequest, want [32]byte) (*passOut, error) {
	out := newPassOut()
	start := time.Now()
	trees := map[specKey]*tree.Tree{}
	var (
		w    *sim.World
		prev sim.Algorithm
		rng  = rand.New(rand.NewSource(0))
	)
	h := sha256.New()
	for i, p := range plan.Points {
		trace := traceID(pass, i)
		root := tr.start("bench.point", trace, 0)
		key := specKey{p.Family, p.N, p.Depth, p.TreeSeed}
		t := trees[key]
		if t == nil {
			sp := tr.start("tree.Generate", trace, root.id())
			var err error
			t, err = tree.Generate(tree.Family(p.Family), p.N, p.Depth, rand.New(rand.NewSource(p.TreeSeed)))
			sp.end()
			if err != nil {
				return nil, err
			}
			trees[key] = t
			out.counts["tree.nodes"] += float64(t.N())
		}
		spec, ok := algSpecs[p.Algorithm]
		if !ok {
			return nil, fmt.Errorf("point %d: unknown algorithm %q", i, p.Algorithm)
		}
		e0 := time.Now()
		var err error
		if w == nil {
			sp := tr.start("sim.NewWorld", trace, root.id())
			w, err = sim.NewWorld(t, p.K)
			sp.end()
		} else {
			sp := tr.start("sim.Reset", trace, root.id())
			err = w.Reset(t, p.K)
			sp.end()
		}
		if err != nil {
			return nil, err
		}
		rng.Seed(int64(sweep.DeriveSeed(uint64(plan.Seed), uint64(i))))
		sp := tr.start(spec.layer+".New", trace, root.id())
		var alg sim.Algorithm
		if spec.recycle != nil && prev != nil {
			alg = spec.recycle(prev, p.K, rng)
		}
		if alg == nil {
			alg, err = spec.make(p.K)
		}
		sp.end()
		if err != nil {
			return nil, err
		}
		prev = alg
		rs, err := runRounds(tr, trace, root.id(), w, alg, spec.layer)
		out.engine += time.Since(e0)
		if err != nil {
			return nil, fmt.Errorf("point %d: %w", i, err)
		}
		rep := syncReport(t, p.K, spec, rs)
		if err := encodeLine(tr, trace, root.id(), h, pointLine{Point: i, Report: &rep}); err != nil {
			return nil, err
		}
		root.end()
		out.counts["sim.rounds"] += float64(rs.Rounds)
		out.counts["sim.moves"] += float64(rs.Moves)
		out.counts["core.reanchors"] += float64(rs.reanchors)
	}
	if err := sameHash(h, want, "point-by-point run"); err != nil {
		return nil, err
	}

	pts := make([]sweep.Point, len(plan.Points))
	for i, p := range plan.Points {
		spec := algSpecs[p.Algorithm]
		pts[i] = sweep.Point{Tree: trees[specKey{p.Family, p.N, p.Depth, p.TreeSeed}], K: p.K,
			NewAlgorithm: func(k int, _ *rand.Rand) sim.Algorithm {
				a, err := spec.make(k)
				if err != nil {
					return nil
				}
				return a
			},
			ResetAlgorithm: spec.recycle}
	}
	trace := traceID(pass, len(plan.Points))
	root := tr.start("bench.sweep", trace, 0)
	sp := tr.start("sweep.RunContext", trace, root.id())
	p0 := time.Now()
	results, _ := sweep.RunContext(ctx, pts, sweep.Options{Workers: 2, BaseSeed: uint64(plan.Seed)})
	out.parallel = time.Since(p0)
	sp.end()
	root.end()
	h.Reset()
	for i, r := range results {
		if r.Err != nil {
			return nil, r.Err
		}
		p := plan.Points[i]
		t := pts[i].Tree
		rep := syncReport(t, p.K, algSpecs[p.Algorithm], roundStats{Result: r.Result})
		if err := encodeLine(nil, 0, 0, h, pointLine{Point: i, Report: &rep}); err != nil {
			return nil, err
		}
	}
	if err := sameHash(h, want, "sweep.RunContext"); err != nil {
		return nil, err
	}
	out.wall = time.Since(start)
	return out, nil
}

// encodeLine marshals one stream line as bfdnd's encoder writes it (timed
// as server.encode) into h.
func encodeLine(tr *Tracer, trace, parent int64, h hash.Hash, line any) error {
	sp := tr.start("server.encode", trace, parent)
	b, err := json.Marshal(line)
	sp.end()
	if err != nil {
		return err
	}
	h.Write(b)
	h.Write([]byte{'\n'})
	return nil
}

func sameHash(h hash.Hash, want [32]byte, what string) error {
	if !bytes.Equal(h.Sum(nil), want[:]) {
		return fmt.Errorf("%s: stream differs from bfdnd's", what)
	}
	return nil
}

// asyncLine is an async sweep stream's point line as bfdnd writes it.
type asyncLine struct {
	Point  int               `json:"point"`
	Report *bfdn.AsyncReport `json:"report,omitempty"`
}

// asyncPass runs the async-sweep plan point by point the way the async
// sweep worker does — one recycled engine, one cached algorithm per name —
// timing engine reset and the event loop. The stream must equal bfdnd's.
func asyncPass(tr *Tracer, pass int, plan asyncRequest, want [32]byte) (*passOut, error) {
	out := newPassOut()
	start := time.Now()
	trees := map[specKey]*tree.Tree{}
	algs := map[string]async.Algorithm{}
	var e *async.Engine
	h := sha256.New()
	for i, p := range plan.Points {
		trace := traceID(pass, i)
		root := tr.start("bench.point", trace, 0)
		key := specKey{p.Family, p.N, p.Depth, p.TreeSeed}
		t := trees[key]
		if t == nil {
			sp := tr.start("tree.Generate", trace, root.id())
			var err error
			t, err = tree.Generate(tree.Family(p.Family), p.N, p.Depth, rand.New(rand.NewSource(p.TreeSeed)))
			sp.end()
			if err != nil {
				return nil, err
			}
			trees[key] = t
			out.counts["tree.nodes"] += float64(t.N())
		}
		alg := algs[p.Algorithm]
		if alg == nil {
			a, err := async.NewNamedAlgorithm(p.Algorithm)
			if err != nil {
				return nil, err
			}
			alg, algs[p.Algorithm] = a, a
		}
		lat, err := async.ParseLatency(p.Latency)
		if err != nil {
			return nil, err
		}
		seed := int64(sweep.DeriveSeed(uint64(plan.Seed), uint64(i)))
		sp := tr.start("async.Reset", trace, root.id())
		if e == nil {
			e, err = async.NewEngine(t, p.Speeds, async.WithAlgorithm(alg), async.WithLatency(lat), async.WithSeed(seed))
		} else {
			e.Rebind(alg, lat)
			err = e.Reset(t, p.Speeds, seed)
		}
		sp.end()
		if err != nil {
			return nil, err
		}
		sp = tr.start("async.Run", trace, root.id())
		r, err := e.Run(0)
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("point %d: %w", i, err)
		}
		rep := bfdn.AsyncReport{Makespan: r.Makespan, WorkDist: r.WorkDist, Events: r.Events,
			Floor: async.LowerBound(t.N(), t.Depth(), p.Speeds), FullyExplored: r.FullyExplored, AllAtRoot: r.AllAtRoot}
		if err := encodeLine(tr, trace, root.id(), h, asyncLine{Point: i, Report: &rep}); err != nil {
			return nil, err
		}
		root.end()
		out.counts["async.events"] += float64(r.Events)
	}
	if err := sameHash(h, want, "async point-by-point run"); err != nil {
		return nil, err
	}
	out.wall = time.Since(start)
	return out, nil
}

// walRecord is the record a journaling bfdnd worker appends per point.
type walRecord struct {
	T      string          `json:"t"`
	I      int             `json:"i"`
	Report json.RawMessage `json:"report"`
}

// tracedPass runs one fleet-journal iteration through dsweep.Run (its
// dispatch spans, recorded by dsweep's own tracer, become children of the
// benchmark's dsweep.Run span), then journals the write pass's reports with
// jobstore Append and reads them back with Replay, as a worker does.
func (f *fleetRun) tracedPass(ctx context.Context, tr *Tracer, pass int, dir string) (*passOut, error) {
	out := newPassOut()
	start := time.Now()
	plan := fleetPlan(f.seed, tracedIteration+pass)
	n := len(plan.Points)

	trace := traceID(pass, 0)
	root := tr.start("bench.write", trace, 0)
	opts := f.opts
	var dtr *tracing.Tracer
	if tr != nil {
		dtr = tracing.New(tracing.Config{Capacity: 1 << 12})
		opts.Tracer = dtr
	}
	sp := tr.start("dsweep.Run", trace, root.id())
	lines, ws, wms, _, err := f.pass(ctx, plan, opts)
	sp.end()
	root.end()
	if err != nil {
		return nil, fmt.Errorf("write pass: %w", err)
	}
	if ws.Replayed != 0 {
		return nil, fmt.Errorf("write pass replayed %d points", ws.Replayed)
	}
	if tr != nil {
		origin := tr.origin.UnixNano()
		for _, ds := range dtr.Spans(tracing.TraceID{}) {
			if ds.Name == "dsweep.dispatch" {
				tr.record(Span{Name: ds.Name, Trace: trace, ID: tr.newID(), Parent: sp.id(),
					Start: ds.Start - origin, End: ds.End - origin, Calls: 1, Busy: ds.End - ds.Start})
			}
		}
	}
	written, err := linesBytes(lines)
	if err != nil {
		return nil, err
	}

	trace = traceID(pass, 1)
	root = tr.start("bench.read", trace, 0)
	sp = tr.start("dsweep.Run", trace, root.id())
	rlines, rs, rms, _, err := f.pass(ctx, plan, f.opts)
	sp.end()
	root.end()
	if err != nil {
		return nil, fmt.Errorf("read pass: %w", err)
	}
	read, err := linesBytes(rlines)
	if err != nil {
		return nil, err
	}
	if rs.Replayed != n || !bytes.Equal(read, written) {
		return nil, fmt.Errorf("read pass replayed %d of %d points (identical: %v)", rs.Replayed, n, bytes.Equal(read, written))
	}

	trace = traceID(pass, 2)
	root = tr.start("bench.journal", trace, 0)
	sp = tr.start("jobstore.Open", trace, root.id())
	storeDir, err := os.MkdirTemp(dir, "journal-")
	var planBytes []byte
	var store *jobstore.Store
	var job *jobstore.Job
	if err == nil {
		if planBytes, err = json.Marshal(plan); err == nil {
			if store, err = jobstore.Open(storeDir); err == nil {
				job, _, err = store.OpenOrCreate("sweep", planBytes)
			}
		}
	}
	sp.end()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(storeDir)
	defer job.Close()
	for i, l := range lines {
		sp := tr.start("jobstore.Append", trace, root.id())
		err := job.Append(walRecord{T: "point", I: i, Report: l.Report})
		sp.end()
		if err != nil {
			return nil, err
		}
	}
	sp = tr.start("jobstore.Replay", trace, root.id())
	recs, err := job.Replay()
	sp.end()
	if err != nil {
		return nil, err
	}
	if len(recs) != len(lines) {
		return nil, fmt.Errorf("journal replays %d of %d records", len(recs), len(lines))
	}
	for i, rec := range recs {
		want, err := json.Marshal(walRecord{T: "point", I: i, Report: lines[i].Report})
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(rec, want) {
			return nil, fmt.Errorf("journal record %d reads back differently", i)
		}
	}
	enc := fold{name: "server.encode"}
	for _, l := range lines {
		t0 := tr.now()
		_, err := json.Marshal(l)
		enc.add(t0, tr.now())
		if err != nil {
			return nil, err
		}
	}
	tr.flush(&enc, trace, root.id())
	root.end()
	wal, err := os.Stat(filepath.Join(storeDir, "jobs", job.ID(), "wal.jsonl"))
	if err != nil {
		return nil, err
	}
	out.counts["jobstore.appends"] = float64(len(lines))
	out.counts["jobstore.replay_records"] = float64(len(recs))
	out.counts["jobstore.wal_bytes"] = float64(wal.Size())
	out.writeMs = []float64{wms}
	out.readMs = []float64{rms}
	out.stats = ws
	out.hitRatio = float64(rs.Replayed) / float64(n)
	out.wall = time.Since(start)
	return out, nil
}

// spanAgg aggregates the spans of one name.
type spanAgg struct {
	durs  []float64 // ns, one per ordinary span
	busy  float64   // ns over all spans
	calls float64
}

func aggregate(spans []Span) map[string]*spanAgg {
	out := map[string]*spanAgg{}
	for _, s := range spans {
		a := out[s.Name]
		if a == nil {
			a = &spanAgg{}
			out[s.Name] = a
		}
		if s.Calls == 1 {
			a.durs = append(a.durs, float64(s.Busy))
		}
		a.busy += float64(s.Busy)
		a.calls += float64(s.Calls)
	}
	return out
}

// layerMetrics fills m from the passes' spans and measurements.
func (s *session) layerMetrics(m map[string]float64, spans []Span, traced, plain []*passOut, p1 *e2eResult) {
	agg := aggregate(spans)
	medianOf := func(name string, scale float64) float64 {
		if a := agg[name]; a != nil {
			return median(a.durs) / scale
		}
		return 0
	}
	perCall := func(name string, scale float64) float64 {
		if a := agg[name]; a != nil && a.calls > 0 {
			return a.busy / a.calls / scale
		}
		return 0
	}
	for name, v := range traced[0].counts {
		m[name] = v
	}
	m["tree.generate_ms_p50"] = medianOf("tree.Generate", 1e6)
	m["tree.from_parents_ms_p50"] = medianOf("tree.FromParents", 1e6)
	m["sim.reset_us_p50"] = medianOf("sim.Reset", 1e3)
	m["sim.apply_ns_per_round"] = perCall("sim.Apply", 1)
	for _, spec := range algSpecs {
		m[spec.layer+".select_ns_per_round"] = perCall(spec.layer+".SelectMoves", 1)
	}
	m["server.encode_us_per_line"] = perCall("server.encode", 1e3)
	m["async.run_ms_p50"] = medianOf("async.Run", 1e6)
	if a := agg["async.Run"]; a != nil && a.busy > 0 {
		m["async.events_per_s"] = traced[0].counts["async.events"] * float64(len(traced)) / (a.busy / 1e9)
	}
	m["jobstore.append_ms_p50"] = medianOf("jobstore.Append", 1e6)
	if a := agg["jobstore.Append"]; a != nil {
		m["jobstore.append_ms_p99"] = supportedQuantile(a.durs, 0.99) / 1e6
	}
	m["jobstore.replay_ms"] = medianOf("jobstore.Replay", 1e6)

	var traceNs, plainNs []float64
	for _, p := range traced {
		traceNs = append(traceNs, float64(p.wall))
	}
	for _, p := range plain {
		plainNs = append(plainNs, float64(p.wall))
	}
	m["bench.trace_overhead_ratio"] = median(traceNs) / median(plainNs)
	m["bench.closure_ratio"] = closure(spans)
	m["bench.spans"] = float64(len(spans))

	switch s.wl.name {
	case "explore-large":
		// bfdnd's request time less the tree, world, engine and encoding
		// time of the same requests run directly.
		var direct []float64
		for _, sp := range spans {
			if sp.Name == "bench.request" {
				direct = append(direct, float64(sp.Busy)/1e6)
			}
		}
		m["server.self_ms_p50"] = median(p1.requestMs) - median(direct)
	case "sweep-grid":
		// Untraced passes: the tracing would inflate engine time.
		var engine, parallel []float64
		for _, p := range plain {
			engine = append(engine, p.engine.Seconds())
			parallel = append(parallel, p.parallel.Seconds())
		}
		points := float64(len(gridPlan(s.seed).Points))
		const workers = 2
		e, w := median(engine), median(parallel)
		m["sweep.engine_us_per_point"] = e / points * 1e6
		m["sweep.dispatch_us_per_point"] = (w*workers - e) / points * 1e6
		m["sweep.worker_busy_ratio"] = e / (w * workers)
	case "fleet-journal":
		var writeMs, readMs, selfMs []float64
		var dispatchNs, writeNs float64
		for _, p := range traced {
			writeMs = append(writeMs, p.writeMs...)
			readMs = append(readMs, p.readMs...)
		}
		self := selfTimes(spans)
		byID := map[int64]Span{}
		for _, sp := range spans {
			byID[sp.ID] = sp
		}
		for _, sp := range spans {
			switch {
			case sp.Name == "dsweep.Run" && byID[sp.Parent].Name == "bench.write":
				selfMs = append(selfMs, float64(self[sp.ID])/1e6)
				writeNs += float64(sp.Busy)
			case sp.Name == "dsweep.dispatch":
				dispatchNs += float64(sp.Busy)
			}
		}
		st := traced[0].stats
		m["dsweep.run_ms"] = median(writeMs)
		m["dsweep.shards"] = float64(st.Shards)
		m["dsweep.retries"] = float64(st.Retries)
		m["dsweep.hedges"] = float64(st.Hedges)
		m["dsweep.failovers"] = float64(st.Failovers)
		m["dsweep.useful_dispatch_ratio"] = float64(st.Shards) / float64(st.Shards+st.Retries+st.Hedges)
		m["dsweep.worker_busy_ratio"] = dispatchNs / (writeNs * float64(s.wl.daemons))
		m["dsweep.coordinator_self_ms"] = median(selfMs)
		m["dsweep.replay_points_per_s"] = float64(len(fleetPlan(s.seed, 0).Points)) / (median(readMs) / 1e3)
		m["jobstore.replay_hit_ratio"] = traced[0].hitRatio
	}
}

// printLayers prints each layer's self time over the traced passes.
func printLayers(spans []Span) {
	self := layerSelf(spans)
	names := make([]string, 0, len(self))
	total := int64(0)
	for n, v := range self {
		names = append(names, n)
		total += v
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, n := range names {
		fmt.Printf("layer %-12s self %10.1f ms  %5.1f%%\n", n, float64(self[n])/1e6, 100*float64(self[n])/float64(max(total, 1)))
	}
}
