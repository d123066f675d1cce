package recursive

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"bfdn/internal/sim"
	"bfdn/internal/snap"
	"bfdn/internal/tree"
)

// TestRestoreRejectsCorruptCheckpoint feeds RestoreState BFDN_2 (k=4)
// checkpoints with one corrupt value each: a travel plan whose length
// prefix is 2^40, which asked make for a 2^40-element path; a negative
// phase index, which made the base step a negative shift; a divide-depth
// level above ℓ, which sized a loop; and a team robot id of 2^40, which
// sized the core instance's team bitset. Each must fail at once with an
// error, and the same checkpoint without the corruption must restore.
func TestRestoreRejectsCorruptCheckpoint(t *testing.T) {
	const huge = 1 << 40
	write := func(phase, level, robot, pathLen int) []byte {
		var e snap.Encoder
		e.Int(4)     // k
		e.Int(2)     // ℓ
		e.Int(phase) // phase index: base step 1
		e.Bool(false)
		e.Bool(false)
		e.Uint64(uint64(tagDivide))
		e.Int(level)
		e.Int(1) // k*
		e.Int(1) // s
		e.Ints([]int{robot})
		e.Int32(0) // root
		e.Int(1)   // iteration
		e.Int(0)   // phase
		e.Bool(false)
		e.Bool(true)
		e.Int(0) // children
		e.Int(1) // travel plans
		e.Int(robot)
		e.Int(pathLen)
		if pathLen == 1 {
			e.Int32(0) // the one-node path
		}
		return e.Bytes()
	}
	for _, tc := range []struct {
		name, want string
		buf        []byte
	}{
		{"travel plan", "travel plan", write(0, 2, 0, huge)},
		{"phase index", "phase index", write(-1, 2, 0, 1)},
		{"level", "divide-depth node header", write(0, 3, 0, 1)},
		{"team", "divide-depth node header", write(0, 2, huge, 1)},
		{"control", "", write(0, 2, 0, 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, err := NewBFDNL(4, 2)
			if err != nil {
				t.Fatal(err)
			}
			w, err := sim.NewWorld(tree.Path(5), 4)
			if err != nil {
				t.Fatal(err)
			}
			d := snap.NewDecoder(tc.buf)
			err = b.RestoreState(d, w.View(), nil)
			if tc.want == "" {
				if err != nil || d.Rest() != 0 {
					t.Fatalf("RestoreState = %v with %d bytes left, want a clean restore", err, d.Rest())
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("RestoreState = %v, want an error about the %s", err, tc.want)
			}
		})
	}
}

// TestRestoreRejectsAnchorOutsideInstance moves the anchor of one level-1
// instance of a real BFDN_2 checkpoint (k=4, random n=120) to an explored
// node outside that instance's subtree, at the same relative depth, and
// changes nothing else. The depth checks alone accept such an anchor;
// RestoreCheckpoint must reject it as corrupt because it lies outside the
// subtree. The uncorrupted checkpoint must restore and run to completion.
func TestRestoreRejectsAnchorOutsideInstance(t *testing.T) {
	ckpt, fresh := anchorOutsideInstance(t)
	w, b := fresh()
	events, err := sim.RestoreCheckpoint(ckpt.orig, w, b)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunCheckpointedContext(context.Background(), w, b, 0, events, 0, nil)
	if err != nil || !res.FullyExplored {
		t.Fatalf("resumed run: %v, fully explored %v", err, res.FullyExplored)
	}

	w, b = fresh()
	_, err = sim.RestoreCheckpoint(ckpt.moved, w, b)
	want := fmt.Sprintf("anchored at %d", ckpt.to)
	if !errors.Is(err, snap.ErrCorrupt) || !strings.Contains(err.Error(), want) {
		t.Fatalf("RestoreCheckpoint = %v, want a corrupt-state error about %q", err, want)
	}
}

// movedAnchor is a BFDN_2 checkpoint before and after moving robot slot 0
// of one level-1 instance from its anchor to node to.
type movedAnchor struct {
	orig, moved []byte
	to          tree.NodeID
}

// anchorOutsideInstance runs BFDN_2 with k=4 on the random tree n=120,
// depth 12, seed 5, checkpointing every round, and returns the first
// checkpoint in which robot slot 0 of a level-1 instance below the tree
// root is anchored away from the tree root, with that anchor moved to the
// first explored node of the anchor's depth outside the instance subtree.
// It also returns a constructor of fresh (world, algorithm) pairs.
func anchorOutsideInstance(t *testing.T) (movedAnchor, func() (*sim.World, *BFDNL)) {
	t.Helper()
	const k = 4
	tr, err := tree.Generate(tree.FamilyRandom, 120, 12, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	fresh := func() (*sim.World, *BFDNL) {
		w, err := sim.NewWorld(tr, k)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewBFDNL(k, 2)
		if err != nil {
			t.Fatal(err)
		}
		return w, b
	}
	var ckpts [][]byte
	w, b := fresh()
	if _, err := sim.RunCheckpointedContext(context.Background(), w, b, 0, nil, 1, func(state []byte) error {
		ckpts = append(ckpts, append([]byte(nil), state...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, ckpt := range ckpts {
		w, b := fresh()
		if _, err := sim.RestoreCheckpoint(ckpt, w, b); err != nil {
			t.Fatal(err)
		}
		v := w.View()
		for _, leaf := range leaves(b.top) {
			root, a := leaf.b.Root(), leaf.b.Anchor(0)
			if root == tree.Root || a == tree.Root {
				continue
			}
			to := tree.Nil
			for u := tree.NodeID(0); int(u) < tr.N(); u++ {
				if v.Explored(u) && v.DepthOf(u) == v.DepthOf(a) && ancestorAtDepth(v, u, v.DepthOf(root)) != root {
					to = u
					break
				}
			}
			if to == tree.Nil {
				continue
			}
			// The leaf's state is a unique run of the checkpoint, and the
			// slot-0 anchor follows its header: the team, root, root depth
			// and seeding flag.
			var le snap.Encoder
			leaf.b.SnapshotState(&le)
			state := le.Bytes()
			if bytes.Count(ckpt, state) != 1 {
				continue
			}
			d := snap.NewDecoder(state)
			d.Ints()
			d.Int32()
			d.Int()
			d.Bool()
			start := len(state) - d.Rest()
			if got := tree.NodeID(d.Int32()); got != a || d.Err() != nil {
				t.Fatalf("decoded slot-0 anchor %d (%v), want %d", got, d.Err(), a)
			}
			end := len(state) - d.Rest()
			var ae snap.Encoder
			ae.Int32(int32(to))
			at := bytes.Index(ckpt, state)
			moved := append(append(append([]byte(nil), ckpt[:at+start]...), ae.Bytes()...), ckpt[at+end:]...)
			return movedAnchor{orig: ckpt, moved: moved, to: to}, fresh
		}
	}
	t.Fatal("no checkpoint has a level-1 instance anchor to move")
	return movedAnchor{}, nil
}

// leaves lists the core instances of an instance tree.
func leaves(a Anchored) []*bfdn1 {
	switch x := a.(type) {
	case *bfdn1:
		return []*bfdn1{x}
	case *divideDepth:
		var out []*bfdn1
		for _, c := range x.children {
			out = append(out, leaves(c)...)
		}
		return out
	}
	return nil
}
