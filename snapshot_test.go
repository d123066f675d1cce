package bfdn

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"bfdn/internal/sim"
)

// errKill simulates a crash: the checkpoint save hook returns it to abort
// the run right after a checkpoint was taken, like a process killed between
// a WAL fsync and the next round.
var errKill = errors.New("simulated crash")

// TestSnapshotRestoreByteIdentity is the S30 property suite: for every
// selectable algorithm, a run that is killed at its first checkpoint and
// restored into a fresh world + algorithm must (a) re-encode the checkpoint
// byte-identically before continuing, (b) finish with a Result deep-equal to
// the uninterrupted run's, and (c) end in a final state whose checkpoint
// encoding is byte-identical to the uninterrupted run's.
func TestSnapshotRestoreByteIdentity(t *testing.T) {
	cases := []struct {
		family Family
		n, d   int
		k      int
	}{
		{FamilyRandom, 300, 12, 4},
		{FamilyComb, 160, 10, 3},
	}
	for _, alg := range Algorithms() {
		for _, tc := range cases {
			tc := tc
			name := fmt.Sprintf("%s/%s_n%d_k%d", alg, tc.family, tc.n, tc.k)
			t.Run(name, func(t *testing.T) {
				tr, err := GenerateTree(tc.family, tc.n, tc.d, 7)
				if err != nil {
					t.Fatalf("GenerateTree: %v", err)
				}
				cfg := defaultConfig()
				cfg.alg = alg

				build := func() (*sim.World, sim.Algorithm) {
					a, _, err := newSimAlgorithm(tr, tc.k, cfg)
					if err != nil {
						t.Fatalf("newSimAlgorithm: %v", err)
					}
					w, err := sim.NewWorld(tr.t, tc.k)
					if err != nil {
						t.Fatalf("NewWorld: %v", err)
					}
					return w, a
				}

				// Uninterrupted reference run.
				w1, a1 := build()
				want, err := sim.RunContext(context.Background(), w1, a1, 0)
				if err != nil {
					t.Fatalf("reference run: %v", err)
				}
				wantFinal, err := sim.EncodeCheckpoint(w1, a1, nil)
				if err != nil {
					t.Fatalf("EncodeCheckpoint(final reference): %v", err)
				}

				// Killed run: crash right after the first checkpoint.
				w2, a2 := build()
				var ckpt []byte
				_, err = sim.RunCheckpointedContext(context.Background(), w2, a2, 0, nil, 3,
					func(state []byte) error {
						ckpt = append([]byte(nil), state...)
						return errKill
					})
				if !errors.Is(err, errKill) {
					t.Fatalf("killed run: want errKill, got %v", err)
				}
				if len(ckpt) == 0 {
					t.Fatal("no checkpoint captured before the crash")
				}
				sum := sha256.Sum256(ckpt)
				if got, want := hex.EncodeToString(sum[:]), checkpointPins[name]; got != want {
					t.Errorf("SHA-256 of the first checkpoint = %s, want %s", got, want)
				}

				// Restore into a completely fresh world + algorithm.
				w3, a3 := build()
				events, err := sim.RestoreCheckpoint(ckpt, w3, a3)
				if err != nil {
					t.Fatalf("RestoreCheckpoint: %v", err)
				}
				resnap, err := sim.EncodeCheckpoint(w3, a3, events)
				if err != nil {
					t.Fatalf("EncodeCheckpoint(restored): %v", err)
				}
				if !bytes.Equal(resnap, ckpt) {
					t.Fatalf("restore → re-snapshot is not byte-identical: %d vs %d bytes", len(resnap), len(ckpt))
				}

				got, err := sim.RunCheckpointedContext(context.Background(), w3, a3, 0, events, 0, nil)
				if err != nil {
					t.Fatalf("resumed run: %v", err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("resumed result differs:\n got %+v\nwant %+v", got, want)
				}
				gotFinal, err := sim.EncodeCheckpoint(w3, a3, nil)
				if err != nil {
					t.Fatalf("EncodeCheckpoint(final resumed): %v", err)
				}
				if !bytes.Equal(gotFinal, wantFinal) {
					t.Fatal("final checkpoint of the resumed run differs from the uninterrupted run")
				}
			})
		}
	}
}

// checkpointPins is the SHA-256 of each (algorithm, case)'s first
// checkpoint in TestSnapshotRestoreByteIdentity. The round trip alone only
// compares a build with itself; the pins also hold the checkpoint bytes, and
// so every algorithm's decisions up to round 3, to their recorded values.
var checkpointPins = map[string]string{
	"bfdn/random_n300_k4":       "ed019317f49a03966a624cf94abe804e777128e2ed52880d0543b5f145ea50c9",
	"bfdn/comb_n160_k3":         "0c022b2eecb09defd58733ebd6188702f49553bfc34453099d9af46e1ea9929b",
	"bfdnl/random_n300_k4":      "9c98c25d59a1afa2568326b80b55728e14c0223070a9a8e16d3ebd84fe14db86",
	"bfdnl/comb_n160_k3":        "9aa7294bb8d95b54642eb4a392ff1f48ad62a9e0c0fa011a6102e820a0715f64",
	"cte/random_n300_k4":        "d949b6540c2976121d3d3ae1ad17bbffef3f240018a607280fe880d7e12ece09",
	"cte/comb_n160_k3":          "a688c9cfb1e799fcca44713c59bfd33947815cc96a35d583cc65db019bd66036",
	"dfs/random_n300_k4":        "f20a7408ed109c38bd47b05b1aed9a4a95a3c682c07ad9bd9290beb3f4506c08",
	"dfs/comb_n160_k3":          "849e056326a99788e9ec921bbb546143517b8785f1835d4b84c80e7c76bbc67e",
	"levelwise/random_n300_k4":  "b46c8d365d1617133a719f06162977221525db41726b97f2289eb1c0c8902fcb",
	"levelwise/comb_n160_k3":    "bc5a358a4bab3476d6438b2578b93851f7e742d7ff491fc3e87c6fc0f1d4ee64",
	"treemining/random_n300_k4": "d949b6540c2976121d3d3ae1ad17bbffef3f240018a607280fe880d7e12ece09",
	"treemining/comb_n160_k3":   "267c93b1dc7c2d7c6b143bbf1a3d45a45890bc1dc089a2daf8c75ce14d320065",
	"potential/random_n300_k4":  "5266c3ada271dca9565eb73dbce116234b673f741c8870f9c6ff41586a8fecb9",
	"potential/comb_n160_k3":    "204c699fc8e3d0a19ca43922ba77e474e9d6b2cfdd3ebee675e47f2d94314848",
}

// TestRestoreCheckpointValidation exercises the failure paths: wrong robot
// count, wrong algorithm type, and corrupt bytes must all error cleanly.
func TestRestoreCheckpointValidation(t *testing.T) {
	tr, err := GenerateTree(FamilyRandom, 120, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := defaultConfig()
	a, _, err := newSimAlgorithm(tr, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := sim.NewWorld(tr.t, 4)
	if err != nil {
		t.Fatal(err)
	}
	var ckpt []byte
	if _, err := sim.RunCheckpointedContext(context.Background(), w, a, 0, nil, 2,
		func(state []byte) error {
			ckpt = append([]byte(nil), state...)
			return errKill
		}); !errors.Is(err, errKill) {
		t.Fatalf("want errKill, got %v", err)
	}

	// Wrong robot count.
	w5, _ := sim.NewWorld(tr.t, 5)
	a5, _, _ := newSimAlgorithm(tr, 5, cfg)
	if _, err := sim.RestoreCheckpoint(ckpt, w5, a5); err == nil {
		t.Fatal("restore into k=5 world accepted a k=4 checkpoint")
	}

	// Wrong algorithm type.
	wx, _ := sim.NewWorld(tr.t, 4)
	cfgCTE := defaultConfig()
	cfgCTE.alg = CTE
	ax, _, _ := newSimAlgorithm(tr, 4, cfgCTE)
	if _, err := sim.RestoreCheckpoint(ckpt, wx, ax); err == nil {
		t.Fatal("restore into a CTE instance accepted a BFDN checkpoint")
	}

	// Truncated bytes.
	wt, _ := sim.NewWorld(tr.t, 4)
	at, _, _ := newSimAlgorithm(tr, 4, cfg)
	if _, err := sim.RestoreCheckpoint(ckpt[:len(ckpt)/2], wt, at); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
}

// FuzzRestoreCheckpoint feeds arbitrary bytes to RestoreCheckpoint for
// every algorithm. Checkpoints come from the job store's files, so a torn
// or corrupted file must be rejected with an error: restoring may succeed
// or fail, but it must never panic, hang or allocate without bound. A
// checkpoint that restores must also resume, so the fuzzer then runs it on
// for up to 400 rounds; that run may end in any error, but it must not
// panic either. The seeds are one valid checkpoint per algorithm.
func FuzzRestoreCheckpoint(f *testing.F) {
	const k = 4
	tr, err := GenerateTree(FamilyRandom, 120, 8, 3)
	if err != nil {
		f.Fatal(err)
	}
	algs := Algorithms()
	build := func(alg Algorithm) (*sim.World, sim.Algorithm) {
		cfg := defaultConfig()
		cfg.alg = alg
		a, _, err := newSimAlgorithm(tr, k, cfg)
		if err != nil {
			f.Fatal(err)
		}
		w, err := sim.NewWorld(tr.t, k)
		if err != nil {
			f.Fatal(err)
		}
		return w, a
	}
	for i, alg := range algs {
		w, a := build(alg)
		var ckpt []byte
		if _, err := sim.RunCheckpointedContext(context.Background(), w, a, 0, nil, 5,
			func(state []byte) error {
				ckpt = append([]byte(nil), state...)
				return errKill
			}); !errors.Is(err, errKill) {
			f.Fatalf("%s: want errKill, got %v", alg, err)
		}
		f.Add(uint8(i), ckpt)
	}
	f.Fuzz(func(t *testing.T, which uint8, state []byte) {
		w, a := build(algs[int(which)%len(algs)])
		events, err := sim.RestoreCheckpoint(state, w, a)
		if err != nil {
			return
		}
		_, _ = sim.RunCheckpointedContext(context.Background(), w, a, int64(w.Round())+400, events, 0, nil)
	})
}
