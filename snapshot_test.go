package bfdn

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"bfdn/internal/sim"
	"bfdn/internal/snap"
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
	"bfdn/random_n300_k4":       "3d9bb6962bf9a91e2e4a9447edf7e92c448c5fcc969feba0c5b4ed7eb98d6602",
	"bfdn/comb_n160_k3":         "1577d20e322ee9f6cc71617b4e4530fee37d86b0bad77dd9ffa104e93f5853ce",
	"bfdnl/random_n300_k4":      "3f6c1ae9e5ef5c70453b9ae4106b48c9c94b9b4c631be0812bfe0ce52373add5",
	"bfdnl/comb_n160_k3":        "18ba56113a78384aace5c448ba41bb89f0d793b7c6632efbcf7180ac040bdbde",
	"cte/random_n300_k4":        "90377554affddf3efaf984a9bd0a37a156eeaa911e49895a405e4fed86c8e311",
	"cte/comb_n160_k3":          "206d79e599f1f227f79ae1ae9e7c60ec24a8504a98fad5c31d7141be32e1300b",
	"dfs/random_n300_k4":        "0e74866ebc6a27d9f8f87d6231ff4b19216b45688a8610720c0b7e9b1b27dda8",
	"dfs/comb_n160_k3":          "7629192dab25f2fdbd4e34af9df999c31be2c685f161069caad317750d9c9f83",
	"levelwise/random_n300_k4":  "f90d1c6c7c167cc36d6aa7683607dd17ea946144377270da4944e50f2b1bf6f6",
	"levelwise/comb_n160_k3":    "4c0c6961b005ff4c7f383fd0078f7b127238a4d26c0e81d169841b1399abb2df",
	"treemining/random_n300_k4": "90377554affddf3efaf984a9bd0a37a156eeaa911e49895a405e4fed86c8e311",
	"treemining/comb_n160_k3":   "ff91a43479d96d17520df90186cfc7527e562ae23d767a38747f7a0283b77081",
	"potential/random_n300_k4":  "dfe213403885c3b1487438db61440ac2b5cbeaa3f8aa0675a149ac7503eff5e6",
	"potential/comb_n160_k3":    "b77645f048563fe9e77073c5a4bcd8f02d5f26f4195b595683a79b9cdc192fb4",
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
// panic either. which picks the algorithm (which mod 7, in Algorithms()
// order) and the tree (which/7 mod 2): random n=120 trees of depth 8,
// seed 3, and of depth 12, seed 5, on which BFDN_2 builds level-1
// instances below the tree root. The seeds are one valid checkpoint per
// algorithm and tree.
func FuzzRestoreCheckpoint(f *testing.F) {
	build := fuzzBuild(f)
	for i := 0; i < 2*len(Algorithms()); i++ {
		w, a := build(uint8(i))
		var ckpt []byte
		if _, err := sim.RunCheckpointedContext(context.Background(), w, a, 0, nil, 5,
			func(state []byte) error {
				ckpt = append([]byte(nil), state...)
				return errKill
			}); !errors.Is(err, errKill) {
			f.Fatalf("seed %d: want errKill, got %v", i, err)
		}
		f.Add(uint8(i), ckpt)
	}
	f.Fuzz(func(t *testing.T, which uint8, state []byte) {
		w, a := build(which)
		events, err := sim.RestoreCheckpoint(state, w, a)
		if err != nil {
			return
		}
		_, _ = sim.RunCheckpointedContext(context.Background(), w, a, int64(w.Round())+400, events, 0, nil)
	})
}

// fuzzBuild returns FuzzRestoreCheckpoint's constructor of fresh (world,
// algorithm) pairs with k=4, selected by which as the fuzzer documents.
func fuzzBuild(tb testing.TB) func(which uint8) (*sim.World, sim.Algorithm) {
	const k = 4
	var trees []*Tree
	for _, p := range []struct {
		d    int
		seed int64
	}{{8, 3}, {12, 5}} {
		tr, err := GenerateTree(FamilyRandom, 120, p.d, p.seed)
		if err != nil {
			tb.Fatal(err)
		}
		trees = append(trees, tr)
	}
	algs := Algorithms()
	return func(which uint8) (*sim.World, sim.Algorithm) {
		tr := trees[int(which)/len(algs)%len(trees)]
		cfg := defaultConfig()
		cfg.alg = algs[int(which)%len(algs)]
		a, _, err := newSimAlgorithm(tr, k, cfg)
		if err != nil {
			tb.Fatal(err)
		}
		w, err := sim.NewWorld(tr.t, k)
		if err != nil {
			tb.Fatal(err)
		}
		return w, a
	}
}

// TestRestoreCheckpointRegressionSeeds pins what two of the fuzzer's seeds
// were checked in for, so a later format change cannot quietly turn them
// into inputs rejected before the check they exercise. potential-cut-ledger
// is a Potential checkpoint (round 10) taken from an instance whose ledger
// was cut to its root entry: it must restore and resume to a full
// exploration. bfdnl-anchor-outside-instance is a BFDN_2 checkpoint in
// which one level-1 instance has an anchor moved outside its subtree at
// the same relative depth: RestoreCheckpoint must reject it as corrupt.
func TestRestoreCheckpointRegressionSeeds(t *testing.T) {
	build := fuzzBuild(t)
	for _, tc := range []struct{ file, want string }{
		{"potential-cut-ledger", ""},
		{"bfdnl-anchor-outside-instance", "anchored at"},
	} {
		t.Run(tc.file, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzRestoreCheckpoint", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			// A corpus file: a header line, then one Go literal per argument.
			lines := strings.Split(strings.TrimSpace(string(data)), "\n")
			if len(lines) != 3 {
				t.Fatalf("corpus file has %d lines, want 3", len(lines))
			}
			which, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "byte("), ")"))
			if err != nil || len(which) != 1 {
				t.Fatalf("which = %q, %v", which, err)
			}
			state, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[2], "[]byte("), ")"))
			if err != nil {
				t.Fatal(err)
			}
			w, a := build(which[0])
			events, err := sim.RestoreCheckpoint([]byte(state), w, a)
			if tc.want != "" {
				if !errors.Is(err, snap.ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("RestoreCheckpoint = %v, want a corrupt-state error about %q", err, tc.want)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.RunCheckpointedContext(context.Background(), w, a, 0, events, 0, nil)
			if err != nil || !res.FullyExplored {
				t.Fatalf("resumed run: %v, fully explored %v", err, res.FullyExplored)
			}
		})
	}
}
