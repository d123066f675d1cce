// Command e2ebench is the repository benchmark: it drives real bfdnd
// processes over loopback on one named workload, checks every output, and
// prints the end-to-end metrics (-trace 0) or, from a separate run that
// calls each layer's functions directly on the same inputs and times them
// with spans kept in memory, the per-layer metrics (-trace 1).
//
// Run it through run.sh from the repository root, which builds bfdnd and
// this program from source first:
//
//	bash e2ebench/run.sh --workload sweep-grid --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The lines before it are a
// readable report, the environment record and any failures. The command
// exits non-zero when any output fails its check.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"bfdn/internal/jobstore"
)

func main() {
	ok, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(2)
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// session is one benchmark invocation's shared state.
type session struct {
	wl      workload
	seed    int64
	seconds time.Duration
	bin     string // bfdnd binary
	dir     string // this run's private directory (stores, logs)
	out     string // benchmark output directory (span files)
	client  *http.Client
}

// setup is everything a workload needs before it can send its first
// request: the running fleet, the coordinator's job store and the inputs.
type setup struct {
	fleet    []*daemon
	store    *jobstore.Store
	explore  []exploreInput
	grid     sweepRequest
	gridBody []byte
	async    asyncRequest
	asyncBdy []byte
}

// setups is how many times a run sets up, so setup_s is a median; all but
// the last set-up are torn down again.
const setups = 5

// rssInterval is how often the daemons' resident set size is sampled
// during the measured loop.
const rssInterval = 50 * time.Millisecond

func run() (bool, error) {
	var (
		name    = flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Int("seconds", 10, "measurement time in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		bin     = flag.String("bfdnd", "", "path of the bfdnd binary to drive")
		out     = flag.String("out", ".bench_build/e2ebench", "directory for span files and run state")
	)
	flag.Parse()
	wl, err := findWorkload(*name)
	if err != nil {
		return false, err
	}
	if *bin == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		return false, errors.New("need -bfdnd, -seconds ≥ 1 and -trace 0 or 1")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return false, err
	}
	dir, err := os.MkdirTemp(*out, "run-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(dir)
	s := &session{wl: wl, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		bin: *bin, dir: dir, out: *out,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 4, DisableCompression: true}}}
	defer s.client.CloseIdleConnections()

	// The whole run must end well inside the three minutes a caller allows
	// it; an interrupt also ends it, and both paths stop the daemons.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	ctx, cancelRun := context.WithTimeout(ctx, 2*s.seconds+130*time.Second)
	defer cancelRun()
	env := environment(s)
	envLine, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envLine)

	var res result
	if *trace == 0 {
		res, err = s.endToEnd(ctx)
	} else {
		res, err = s.traced(ctx)
	}
	if err != nil {
		return false, err
	}
	for name, m := range res.Metrics {
		// JSON has no NaN or Inf; a ratio over an empty measurement is a
		// failed run, not a number.
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Printf("FAIL metric %s is %v\n", name, m.Value)
			res.Metrics[name] = metric{0, m.Unit}
			res.Correct = false
			res.Failed++
		}
	}
	printReport(res)
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return res.Correct, nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// setUp starts the fleet, opens the coordinator's store and generates the
// inputs, returning the set-up and how long it took.
func (s *session) setUp(ctx context.Context) (*setup, time.Duration, error) {
	t0 := time.Now()
	fleet, err := startFleet(ctx, s.bin, s.dir, s.wl, s.client)
	if err != nil {
		return nil, 0, err
	}
	su := &setup{fleet: fleet}
	switch s.wl.name {
	case "explore-large":
		su.explore, err = exploreInputs(s.seed)
	case "sweep-grid":
		su.grid = gridPlan(s.seed)
		su.gridBody, err = json.Marshal(su.grid)
	case "fleet-journal":
		var dir string
		if dir, err = os.MkdirTemp(s.dir, "coordinator-"); err == nil {
			su.store, err = jobstore.Open(dir)
		}
	case "async-sweep":
		su.async = asyncPlan(s.seed)
		su.asyncBdy, err = json.Marshal(su.async)
	}
	if err != nil {
		stopFleet(fleet)
		return nil, 0, err
	}
	return su, time.Since(t0), nil
}

// setUpMany sets up `setups` times, keeping the last set-up, and returns the
// median set-up time in seconds.
func (s *session) setUpMany(ctx context.Context) (*setup, float64, error) {
	var times []float64
	var su *setup
	for i := 0; i < setups; i++ {
		next, d, err := s.setUp(ctx)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, d.Seconds())
		if su != nil {
			stopFleet(su.fleet)
		}
		su = next
	}
	fmt.Printf("setup_s samples %.4f\n", times)
	return su, median(times), nil
}

// warmUp sends one round of unmeasured traffic so connections, caches and
// the daemons' heaps are warm before timing starts. Its outputs are checked
// like any other.
func (s *session) warmUp(ctx context.Context, su *setup) *e2eResult {
	switch s.wl.name {
	case "explore-large":
		return runExplore(ctx, s.client, su.fleet[0], su.explore, s.wl.clients, loopLimit{count: 2 * s.wl.clients})
	case "sweep-grid":
		return runStream(ctx, s.client, su.fleet[0], "/v1/sweep", su.gridBody, len(su.grid.Points), checkSweepReport, loopLimit{count: 1})
	case "async-sweep":
		return runStream(ctx, s.client, su.fleet[0], "/v1/asyncsweep", su.asyncBdy, len(su.async.Points), checkAsyncReport, loopLimit{count: 1})
	default:
		return newFleetRun(s.seed, su.fleet, su.store, s.client).run(ctx, warmUpIteration, loopLimit{count: 1})
	}
}

// Fleet-journal iteration numbers: each names a distinct plan, so the
// warm-up, the measured loop and the traced passes never share a job.
const (
	warmUpIteration   = 900_000
	tracedIteration   = 500_000
	measuredIteration = 0
)

// loop runs the workload's measured closed loop under lim.
func (s *session) loop(ctx context.Context, su *setup, lim loopLimit) *e2eResult {
	switch s.wl.name {
	case "explore-large":
		return runExplore(ctx, s.client, su.fleet[0], su.explore, s.wl.clients, lim)
	case "sweep-grid":
		return runStream(ctx, s.client, su.fleet[0], "/v1/sweep", su.gridBody, len(su.grid.Points), checkSweepReport, lim)
	case "async-sweep":
		return runStream(ctx, s.client, su.fleet[0], "/v1/asyncsweep", su.asyncBdy, len(su.async.Points), checkAsyncReport, lim)
	default:
		return newFleetRun(s.seed, su.fleet, su.store, s.client).run(ctx, measuredIteration, lim)
	}
}

// endToEnd is the untraced run: set up, warm up, run the closed loop for
// the measurement time, check every output and the daemons' counters.
func (s *session) endToEnd(ctx context.Context) (result, error) {
	su, setupS, err := s.setUpMany(ctx)
	if err != nil {
		return result{}, err
	}
	defer stopFleet(su.fleet)
	warm := s.warmUp(ctx, su)
	before, err := scrapeFleet(ctx, s.client, su.fleet)
	if err != nil {
		return result{}, err
	}
	stop := make(chan struct{})
	rssc := make(chan []float64, 1)
	go func() { rssc <- sampleRSS(su.fleet, rssInterval, stop) }()
	res := s.loop(ctx, su, loopLimit{deadline: time.Now().Add(s.seconds)})
	close(stop)
	rss := <-rssc
	after, err := scrapeFleet(ctx, s.client, su.fleet)
	if err != nil {
		return result{}, err
	}
	peak, err := fleetMB(su.fleet, "VmHWM")
	if err != nil {
		return result{}, err
	}
	s.checkOutputs(ctx, su, warm, res)
	counters := crossCheck(s.wl, before, after, res)

	out := result{Attempted: warm.attempted + res.attempted, Failed: warm.failed + res.failed,
		Metrics: map[string]metric{}}
	printFailures(warm)
	printFailures(res)
	if len(res.requestMs) == 0 {
		return result{Attempted: max(out.Attempted, 1), Failed: max(out.Failed, 1), Metrics: out.Metrics}, nil
	}
	items := median(res.itemsPerS)
	if s.wl.name == "explore-large" {
		items = res.items / res.wall
	}
	out.Metrics["setup_s"] = metric{setupS, "s"}
	out.Metrics["request_ms_p50"] = metric{median(res.requestMs), "ms"}
	out.Metrics["first_line_ms_p50"] = metric{median(res.firstMs), "ms"}
	out.Metrics["items_per_s"] = metric{items, "1/s"}
	out.Metrics["rss_mb_p50"] = metric{median(rss), "MB"}
	out.Correct = out.Failed == 0 && counters == nil
	if counters != nil {
		fmt.Printf("FAIL counters: %v\n", counters)
	}
	printLoop(s.wl, res)
	fmt.Printf("%-24s %10.3f MB (VmHWM, summed over %d bfdnd)\n", "rss_peak_mb", peak, len(su.fleet))
	return out, nil
}

// printLoop prints the loop's figures with their sample counts and tails.
func printLoop(wl workload, res *e2eResult) {
	show := func(name, unit string, xs []float64) {
		if len(xs) == 0 {
			return
		}
		line := fmt.Sprintf("%-24s p50 %10.3f %s  n=%d", name, median(xs), unit, len(xs))
		if q, v, ok := tail(xs); ok {
			line += fmt.Sprintf("  p%g %.3f %s", 100*q, v, unit)
		}
		fmt.Println(line)
	}
	fmt.Printf("workload %s: %d requests in %.2fs, %d attempted operations, %d failed (ops_failed_ratio %.4f)\n",
		wl.name, res.sent, res.wall, res.attempted, res.failed, float64(res.failed)/float64(max(res.attempted, 1)))
	show("request_ms", "ms", res.requestMs)
	show("first_line_ms", "ms", res.firstMs)
	show("points_per_s", "1/s", res.itemsPerS)
	show("replay_points_per_s", "1/s", res.replayPerS)
	show("response_bytes", "B", res.bytes)
	if wl.name == "explore-large" {
		fmt.Printf("%-24s %10.0f 1/s\n", "explore_nodes_per_s", res.items/res.wall)
	}
}

func printFailures(res *e2eResult) {
	for _, e := range res.errs {
		fmt.Println("FAIL", e)
	}
}

// printReport prints the metrics one per line, sorted by name.
func printReport(res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-34s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Printf("correct %v, attempted %d, failed %d\n", res.Correct, res.Attempted, res.Failed)
}

// spanFile is where a traced run writes its spans.
func (s *session) spanFile() string {
	return filepath.Join(s.out, fmt.Sprintf("spans-%s-seed%d.jsonl", s.wl.name, s.seed))
}
