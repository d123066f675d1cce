package bfdn

import (
	"context"
	"reflect"
	"sync"
	"testing"
)

func testGrid(t *testing.T) []SweepPoint {
	t.Helper()
	var pts []SweepPoint
	for _, alg := range []Algorithm{BFDN, CTE, Potential} {
		for _, k := range []int{2, 4} {
			tr, err := GenerateTree(FamilyRandom, 200, 10, int64(42+k))
			if err != nil {
				t.Fatal(err)
			}
			pts = append(pts, SweepPoint{Tree: tr, K: k, Algorithm: alg})
		}
	}
	return pts
}

// resumeCase is one engine's grid for TestSweepResumeByteIdentity. sweep
// runs the grid with opts, calling settled (when non-nil) after each point
// settles, and returns every point's report and error.
type resumeCase struct {
	name   string
	points int
	sweep  func(ctx context.Context, settled func(), opts ...EngineOption) ([]any, []error, SweepStats, error)
}

func syncResumeCase(t *testing.T) resumeCase {
	points := testGrid(t)
	return resumeCase{"sync", len(points), func(ctx context.Context, settled func(), opts ...EngineOption) ([]any, []error, SweepStats, error) {
		reps, errs := make([]any, len(points)), make([]error, len(points))
		stats, err := SweepStream(ctx, points, 2, 99, func(i int, r SweepResult) {
			reps[i], errs[i] = r.Report, r.Err
			if settled != nil {
				settled()
			}
		}, opts...)
		return reps, errs, stats, err
	}}
}

func asyncResumeCase(t *testing.T) resumeCase {
	tr, err := GenerateTree(FamilyRandom, 150, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	var points []AsyncSweepPoint
	for i := 0; i < 6; i++ {
		points = append(points, AsyncSweepPoint{
			Tree: tr, Speeds: []float64{1, 1.5, 0.5}, Latency: "jitter:0.3",
		})
	}
	return resumeCase{"async", len(points), func(ctx context.Context, settled func(), opts ...EngineOption) ([]any, []error, SweepStats, error) {
		reps, errs := make([]any, len(points)), make([]error, len(points))
		stats, err := SweepAsyncStream(ctx, points, 2, 7, func(i int, r AsyncSweepResult) {
			reps[i], errs[i] = r.Report, r.Err
			if settled != nil {
				settled()
			}
		}, opts...)
		return reps, errs, stats, err
	}}
}

// TestSweepResumeByteIdentity interrupts a journaled sweep after its first
// settled point and resumes it by re-running it against the same store, on
// both engines; the merged results must deep-equal an uninterrupted run's,
// the job must finish marked done, and a further run must replay every
// point from the journal without simulating.
func TestSweepResumeByteIdentity(t *testing.T) {
	for _, c := range []resumeCase{syncResumeCase(t), asyncResumeCase(t)} {
		t.Run(c.name, func(t *testing.T) {
			want, wantErrs, _, err := c.sweep(context.Background(), nil)
			if err != nil {
				t.Fatal(err)
			}

			js, err := OpenJobStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			var once sync.Once
			// Crash after the first point lands in the journal.
			_, _, _, err = c.sweep(ctx, func() { once.Do(cancel) }, WithJobStore(js))
			cancel()
			if err != nil {
				t.Fatalf("interrupted sweep: %v", err)
			}

			jobs, err := js.Jobs()
			if err != nil {
				t.Fatal(err)
			}
			if len(jobs) != 1 || jobs[0].Done {
				t.Fatalf("after interruption want one unfinished job, got %+v", jobs)
			}
			if jobs[0].Records == 0 || jobs[0].Records >= c.points {
				t.Fatalf("want partial journal, got %d/%d records", jobs[0].Records, c.points)
			}

			got, gotErrs, _, err := c.sweep(context.Background(), nil, WithJobStore(js))
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			for i := range want {
				if wantErrs[i] != nil || gotErrs[i] != nil {
					t.Fatalf("point %d errored: want %v, got %v", i, wantErrs[i], gotErrs[i])
				}
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("point %d differs after resume:\n got %+v\nwant %+v", i, got[i], want[i])
				}
			}
			jobs, _ = js.Jobs()
			if len(jobs) != 1 || !jobs[0].Done {
				t.Fatalf("after resume want one done job, got %+v", jobs)
			}

			// A third run replays everything from the journal without simulating.
			_, _, stats, err := c.sweep(context.Background(), nil, WithJobStore(js))
			if err != nil {
				t.Fatal(err)
			}
			if stats.Points != 0 {
				t.Fatalf("done job re-ran %d points", stats.Points)
			}
		})
	}
}

// TestExploreCheckpointResume kills a checkpointed exploration mid-run via
// context cancellation, resumes it, and checks the report matches a plain
// run; a second resume must replay the journaled report without simulating.
func TestExploreCheckpointResume(t *testing.T) {
	tr, err := GenerateTree(FamilyRandom, 400, 14, 11)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Explore(tr, 4)
	if err != nil {
		t.Fatal(err)
	}

	js, err := OpenJobStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	_, err = ExploreContext(ctx, tr, 4,
		WithCheckpoint(js, 5),
		WithProgress(func(p Progress) {
			if p.Round >= 12 {
				cancel()
			}
		}))
	cancel()
	if err == nil {
		t.Fatal("interrupted exploration unexpectedly completed")
	}
	jobs, err := js.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].Done {
		t.Fatalf("after kill want one unfinished job, got %+v", jobs)
	}

	got, err := ExploreContext(context.Background(), tr, 4, WithCheckpoint(js, 5))
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed report differs:\n got %+v\nwant %+v", got, want)
	}

	// Done job: replayed from the journal, byte-identical again.
	again, err := ExploreContext(context.Background(), tr, 4, WithCheckpoint(js, 5))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, want) {
		t.Fatalf("journaled report differs:\n got %+v\nwant %+v", again, want)
	}
}
