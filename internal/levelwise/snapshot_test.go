package levelwise

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"bfdn/internal/sim"
	"bfdn/internal/snap"
	"bfdn/internal/tree"
)

// TestRestoreRejectsHugeLengths feeds RestoreState a checkpoint whose
// length prefix claims 2^40 elements, once per counted record. Each must
// fail at once with an error naming that record; before the prefixes were
// checked against the bytes left, the plan case looped for hours.
func TestRestoreRejectsHugeLengths(t *testing.T) {
	const huge = 1 << 40
	for _, tc := range []struct {
		name, want string
		write      func(e *snap.Encoder)
	}{
		{"open list", "open-list length", func(e *snap.Encoder) {
			e.Int(1)
			e.Bool(true)
			e.Int(0)
			e.Int(huge)
		}},
		{"plan", "plan for robot 0", func(e *snap.Encoder) {
			e.Int(1)
			e.Bool(true)
			e.Int(0)
			e.Int(0)
			e.Int(huge)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var e snap.Encoder
			tc.write(&e)
			if tc.name == "plan" && len(e.Bytes()) != 10 {
				t.Fatalf("repro buffer is %d bytes, want 10", len(e.Bytes()))
			}
			w, err := sim.NewWorld(tree.Path(3), 1)
			if err != nil {
				t.Fatal(err)
			}
			err = New(1).RestoreState(snap.NewDecoder(e.Bytes()), w.View(), nil)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("RestoreState = %v, want an error about the %s", err, tc.want)
			}
		})
	}
}

// TestResumeRejectsStateOffTheTree corrupts a level-wise checkpoint with
// node ids only the tree can reveal: a plan that explores from node -25
// (the fuzzer's find), a descent through node -3, and an open-list node
// past the tree. RestoreCheckpoint must reject each one instead of leaving
// the resumed run to index out of range; the uncorrupted checkpoint must
// restore and run to completion.
func TestResumeRejectsStateOffTheTree(t *testing.T) {
	const k = 4
	tr := tree.Random(200, 10, rand.New(rand.NewSource(3)))
	errStop := errors.New("stop")
	w, _ := sim.NewWorld(tr, k)
	var ckpt []byte
	if _, err := sim.RunCheckpointedContext(context.Background(), w, New(k), 0, nil, 7, func(state []byte) error {
		ckpt = state
		return errStop
	}); !errors.Is(err, errStop) {
		t.Fatalf("want the save hook's error, got %v", err)
	}
	for _, tc := range []struct {
		name, want string
		corrupt    func(l *Levelwise)
	}{
		{"control", "", func(*Levelwise) {}},
		{"explore from node -25", "explore from node -25", func(l *Levelwise) { l.plans[0].explore = -25 }},
		{"descent through node -3", "walk through node -3", func(l *Levelwise) {
			l.plans[1].down = append(l.plans[1].down, -3)
		}},
		{"open-list node past the tree", "open-list node", func(l *Levelwise) {
			l.openList = append(l.openList, 1<<20)
			l.openCount[1<<20] = 1
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, _ := sim.NewWorld(tr, k)
			l := New(k)
			events, err := sim.RestoreCheckpoint(ckpt, w, l)
			if err != nil {
				t.Fatal(err)
			}
			tc.corrupt(l)
			state, err := sim.EncodeCheckpoint(w, l, events)
			if err != nil {
				t.Fatal(err)
			}
			w, _ = sim.NewWorld(tr, k)
			l = New(k)
			events, err = sim.RestoreCheckpoint(state, w, l)
			if tc.want != "" {
				if !errors.Is(err, snap.ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("RestoreCheckpoint = %v, want a corrupt-state error about %q", err, tc.want)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.RunCheckpointedContext(context.Background(), w, l, 0, events, 0, nil)
			if err != nil || !res.FullyExplored {
				t.Fatalf("resumed run: %v, fully explored %v", err, res.FullyExplored)
			}
		})
	}
}
