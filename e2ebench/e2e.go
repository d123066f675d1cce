package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"bfdn"
	"bfdn/internal/dsweep"
	"bfdn/internal/jobstore"
)

// loopLimit bounds a closed loop: it stops after count requests (0 = no
// count limit) or once deadline has passed (zero = no deadline), whichever
// comes first.
type loopLimit struct {
	count    int
	deadline time.Time
}

// done reports whether request i may not be sent: the limit is reached or
// the run's context has ended.
func (l loopLimit) done(ctx context.Context, i int) bool {
	return ctx.Err() != nil || l.count > 0 && i >= l.count ||
		!l.deadline.IsZero() && !time.Now().Before(l.deadline)
}

// e2eResult is what one closed loop observed from the client side.
type e2eResult struct {
	mu sync.Mutex

	requestMs  []float64 // per request (fleet-journal: per write pass)
	firstMs    []float64 // time to the first response byte or streamed line
	itemsPerS  []float64 // per request: points/s (sweeps, fleet write passes)
	replayPerS []float64 // fleet-journal read passes: points/s
	bytes      []float64 // response body bytes per request
	items      float64   // explore: tree nodes explored
	wall       float64   // seconds from the loop's start to its last completion

	sent      int // requests (fleet-journal: write passes) sent
	shards    int // fleet-journal: shard dispatches, retries and hedges included
	points    int // sweep points received (fleet-journal: write passes only)
	attempted int
	failed    int
	errs      []string

	// hashes maps an input (explore input index, 0 for a sweep plan,
	// fleet-journal iteration) to the SHA-256 of its reply's payload; every
	// reply to one input must hash the same. opsPerReply is how many
	// operations a reply carries.
	hashes      map[int][32]byte
	replies     map[int]int // replies hashed per input
	opsPerReply int
	reports     map[int][]byte // explore: report JSON per input index
}

func newResult(opsPerReply int) *e2eResult {
	return &e2eResult{hashes: map[int][32]byte{}, replies: map[int]int{}, reports: map[int][]byte{},
		opsPerReply: opsPerReply}
}

// fail counts n failed operations with a reason (the first few are kept).
func (r *e2eResult) fail(n int, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed += n
	if len(r.errs) < 8 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// sameHash records h for input i, failing when an earlier response to the
// same input hashed differently.
func (r *e2eResult) sameHash(i int, h [32]byte, ops int) {
	r.mu.Lock()
	prev, seen := r.hashes[i]
	if !seen {
		r.hashes[i] = h
	}
	r.replies[i]++
	r.mu.Unlock()
	if seen && prev != h {
		r.fail(ops, "input %d: response differs from an earlier response to the same input", i)
	}
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// exploreResponse is the part of the bfdnd explore reply the checks read.
type exploreResponse struct {
	N      int             `json:"n"`
	Report json.RawMessage `json:"report"`
}

// checkExplore validates one explore report against the paper's bounds and
// the termination state. nodes is the uploaded tree's size, 0 for a
// generated tree.
func checkExplore(raw json.RawMessage, n, nodes int) error {
	var rep bfdn.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return fmt.Errorf("decode report: %w", err)
	}
	switch {
	case !rep.FullyExplored || !rep.AllAtRoot:
		return fmt.Errorf("run did not finish: fullyExplored=%v allAtRoot=%v", rep.FullyExplored, rep.AllAtRoot)
	case float64(rep.Rounds) < rep.OfflineLowerBound || float64(rep.Rounds) > rep.Bound:
		return fmt.Errorf("rounds %d outside [%.1f, %.1f]", rep.Rounds, rep.OfflineLowerBound, rep.Bound)
	case rep.EdgeExplorations != n-1:
		return fmt.Errorf("%d edge explorations on %d nodes", rep.EdgeExplorations, n)
	case nodes > 0 && n != nodes:
		return fmt.Errorf("daemon built %d nodes from a %d-node parents array", n, nodes)
	}
	return nil
}

// runExplore drives clients concurrent closed loops of POST /v1/explore,
// cycling through inputs.
func runExplore(ctx context.Context, client *http.Client, d *daemon, inputs []exploreInput, clients int, lim loopLimit) *e2eResult {
	res := newResult(1)
	var next atomic.Int64
	start := time.Now()
	var last atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1) - 1)
				if lim.done(ctx, j) {
					return
				}
				in := j % len(inputs)
				exploreOnce(ctx, client, d, inputs[in], in, res)
				last.Store(int64(time.Since(start)))
			}
		}()
	}
	wg.Wait()
	res.wall = float64(last.Load()) / 1e9
	return res
}

func exploreOnce(ctx context.Context, client *http.Client, d *daemon, in exploreInput, idx int, res *e2eResult) {
	res.mu.Lock()
	res.sent++
	res.attempted++
	res.mu.Unlock()
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.url+"/v1/explore", bytes.NewReader(in.body))
	if err != nil {
		res.fail(1, "explore: %v", err)
		return
	}
	resp, err := client.Do(req)
	if err != nil {
		res.fail(1, "explore: %v", err)
		return
	}
	first := msSince(t0)
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	total := msSince(t0)
	if err != nil || resp.StatusCode != http.StatusOK {
		res.fail(1, "explore: status %d: %s %v", resp.StatusCode, bytes.TrimSpace(body), err)
		return
	}
	var er exploreResponse
	if err := json.Unmarshal(body, &er); err != nil {
		res.fail(1, "explore: decode response: %v", err)
		return
	}
	if err := checkExplore(er.Report, er.N, len(in.req.Parents)); err != nil {
		res.fail(1, "explore input %d: %v", idx, err)
		return
	}
	res.sameHash(idx, sha256.Sum256(er.Report), 1)
	res.mu.Lock()
	res.requestMs = append(res.requestMs, total)
	res.firstMs = append(res.firstMs, first)
	res.bytes = append(res.bytes, float64(len(body)))
	res.items += float64(er.N)
	res.reports[idx] = er.Report
	res.mu.Unlock()
}

// streamLine is one JSONL record of a bfdnd sweep or async sweep stream.
type streamLine struct {
	Point  int             `json:"point"`
	Report json.RawMessage `json:"report"`
	Error  string          `json:"error"`
	Done   bool            `json:"done"`
	Points int             `json:"points"`
}

// lineCheck validates one point line's report; nil accepts any report.
type lineCheck func(point int, report json.RawMessage) error

// runStream drives one closed loop of a streaming sweep endpoint (path) with
// the same body every time. Every response's point lines must hash the
// same; check validates each report.
func runStream(ctx context.Context, client *http.Client, d *daemon, path string, body []byte, points int, check lineCheck, lim loopLimit) *e2eResult {
	res := newResult(points)
	start := time.Now()
	for i := 0; !lim.done(ctx, i); i++ {
		streamOnce(ctx, client, d, path, body, points, check, res)
	}
	res.wall = time.Since(start).Seconds()
	return res
}

func streamOnce(ctx context.Context, client *http.Client, d *daemon, path string, body []byte, points int, check lineCheck, res *e2eResult) {
	res.sent++
	res.attempted += points
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.url+path, bytes.NewReader(body))
	if err != nil {
		res.fail(points, "%s: %v", path, err)
		return
	}
	resp, err := client.Do(req)
	if err != nil {
		res.fail(points, "%s: %v", path, err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		res.fail(points, "%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(msg))
		return
	}
	// Read the stream first and check it after the clock stops, so the
	// checks do not compete with the daemon for the CPU mid-request.
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	var stream bytes.Buffer
	first := 0.0
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 && first == 0 {
			first = msSince(t0)
		}
		stream.Write(line)
		if err != nil {
			if !errors.Is(err, io.EOF) {
				res.fail(points, "%s: stream: %v", path, err)
				return
			}
			break
		}
	}
	total := msSince(t0)

	h := sha256.New()
	got, done := 0, false
	for _, line := range bytes.SplitAfter(stream.Bytes(), []byte{'\n'}) {
		if len(line) == 0 {
			continue
		}
		var l streamLine
		if err := json.Unmarshal(line, &l); err != nil {
			res.fail(1, "%s: undecodable line: %v", path, err)
			continue
		}
		if l.Done {
			done = l.Points == points
			continue
		}
		h.Write(line)
		if l.Point != got {
			res.fail(1, "%s: line for point %d, want %d", path, l.Point, got)
		} else if l.Error != "" {
			res.fail(1, "%s: point %d: %s", path, l.Point, l.Error)
		} else if check != nil {
			if err := check(l.Point, l.Report); err != nil {
				res.fail(1, "%s: point %d: %v", path, l.Point, err)
			}
		}
		got++
	}
	if got != points || !done {
		res.fail(max(points-got, 1), "%s: stream ended after %d of %d points (done line ok: %v)", path, got, points, done)
		return
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	res.sameHash(0, sum, points)
	res.requestMs = append(res.requestMs, total)
	res.firstMs = append(res.firstMs, first)
	res.itemsPerS = append(res.itemsPerS, float64(points)/(total/1e3))
	res.bytes = append(res.bytes, float64(stream.Len()))
	res.points += got
}

// fleetRun is the dsweep side of the fleet-journal workload.
type fleetRun struct {
	seed  int64
	urls  []string
	store *jobstore.Store
	opts  dsweep.Options
}

func newFleetRun(seed int64, fleet []*daemon, store *jobstore.Store, client *http.Client) *fleetRun {
	urls := make([]string, len(fleet))
	for i, d := range fleet {
		urls[i] = d.url
	}
	return &fleetRun{seed: seed, urls: urls, store: store,
		opts: dsweep.Options{Client: client, Store: store, InflightPerWorker: 1}}
}

// linesBytes serializes merged lines as the coordinator's JSONL.
func linesBytes(lines []dsweep.Line) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, l := range lines {
		if err := enc.Encode(l); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// checkSweepReport validates a synchronous report: finished, and not
// faster than half the offline lower bound, which no algorithm can be. The
// guarantee is not checked: for CTE it is an asymptotic form, not an
// envelope. sweep-grid streams are also compared with a local sweep.
func checkSweepReport(_ int, raw json.RawMessage) error {
	var rep bfdn.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return err
	}
	if !rep.FullyExplored || !rep.AllAtRoot {
		return fmt.Errorf("run did not finish")
	}
	if float64(rep.Rounds) < rep.OfflineLowerBound/2 {
		return fmt.Errorf("rounds %d below half the offline lower bound %.1f", rep.Rounds, rep.OfflineLowerBound)
	}
	return nil
}

// pass runs plan once through the coordinator, checks every merged line,
// and returns the lines, the dsweep stats, and the wall and first-line
// times in ms.
func (f *fleetRun) pass(ctx context.Context, plan dsweep.Plan, opts dsweep.Options) ([]dsweep.Line, dsweep.Stats, float64, float64, error) {
	t0 := time.Now()
	first := 0.0
	opts.OnLine = func(dsweep.Line) {
		if first == 0 {
			first = msSince(t0)
		}
	}
	lines, stats, err := dsweep.Run(ctx, plan, f.urls, opts)
	total := msSince(t0)
	if err != nil {
		return nil, stats, total, first, err
	}
	if len(lines) != len(plan.Points) {
		return nil, stats, total, first, fmt.Errorf("dsweep returned %d of %d lines", len(lines), len(plan.Points))
	}
	for i, l := range lines {
		if l.Error != "" {
			return nil, stats, total, first, fmt.Errorf("point %d: %s", i, l.Error)
		}
		if err := checkSweepReport(i, l.Report); err != nil {
			return nil, stats, total, first, fmt.Errorf("point %d: %w", i, err)
		}
	}
	return lines, stats, total, first, nil
}

// iteration runs one write pass on a fresh plan and one read pass that
// resubmits it, checking that nothing replays on the write pass, everything
// replays on the read pass, and the read pass is byte-identical.
func (f *fleetRun) iteration(ctx context.Context, i int, res *e2eResult) {
	plan := fleetPlan(f.seed, i)
	n := len(plan.Points)
	res.sent++
	res.attempted += 2 * n
	wlines, ws, wms, wfirst, err := f.pass(ctx, plan, f.opts)
	var written []byte
	if err == nil {
		written, err = linesBytes(wlines)
	}
	if err != nil {
		res.fail(2*n, "write pass %d: %v", i, err)
		return
	}
	if ws.Replayed != 0 {
		res.fail(n, "write pass %d replayed %d points from a fresh plan", i, ws.Replayed)
	}
	rlines, rs, rms, _, err := f.pass(ctx, plan, f.opts)
	var read []byte
	if err == nil {
		read, err = linesBytes(rlines)
	}
	if err != nil {
		res.fail(n, "read pass %d: %v", i, err)
		return
	}
	if rs.Replayed != n {
		res.fail(n, "read pass %d replayed %d of %d points", i, rs.Replayed, n)
	} else if !bytes.Equal(read, written) {
		res.fail(n, "read pass %d differs from its write pass", i)
	}
	res.sameHash(i, sha256.Sum256(written), n)
	res.requestMs = append(res.requestMs, wms)
	res.firstMs = append(res.firstMs, wfirst)
	res.itemsPerS = append(res.itemsPerS, float64(n)/(wms/1e3))
	res.replayPerS = append(res.replayPerS, float64(n)/(rms/1e3))
	res.bytes = append(res.bytes, float64(len(written)))
	res.points += n
	res.shards += ws.Shards + ws.Retries + ws.Hedges
}

// run drives fleet-journal iterations numbered from base.
func (f *fleetRun) run(ctx context.Context, base int, lim loopLimit) *e2eResult {
	res := newResult(len(fleetPlan(f.seed, base).Points))
	start := time.Now()
	for i := 0; !lim.done(ctx, i); i++ {
		f.iteration(ctx, base+i, res)
	}
	res.wall = time.Since(start).Seconds()
	return res
}
