package core

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

// TestRestoreRejectsHugeLengths feeds RestoreState a one-robot checkpoint
// whose length prefix claims 2^40 elements, once per counted record, and
// one whose robot id is 2^40, which would size the team bitset. Each must
// fail at once with an error naming that record. The same buffer with a
// zero there instead restores cleanly, which shows the buffers follow the
// format up to the corrupted value.
func TestRestoreRejectsHugeLengths(t *testing.T) {
	const huge = 1 << 40
	robot := func(e *snap.Encoder) { // header, robot 0 up to its BF stack
		e.Ints([]int{0})
		e.Int32(0)
		e.Int(0)
		e.Bool(true)
		e.Int32(0)
		e.Int(0)
	}
	stats := func(e *snap.Encoder) { // empty stack, rest of robot 0, stats
		robot(e)
		e.Int(0)
		e.Int(0)
		e.Int(0)
		e.Bool(false)
		e.Ints(nil)
	}
	meta := func(e *snap.Encoder) { // empty log, index up to its meta table
		stats(e)
		e.Int(0)
		e.Int(0)
		e.Int(0)
	}
	index := func(e *snap.Encoder) { // empty meta table, index up to its buckets
		meta(e)
		e.Int(0)
	}
	for _, tc := range []struct {
		name, want string
		write      func(e *snap.Encoder)
	}{
		{"robot id", "not in the instance's team", func(e *snap.Encoder) { e.Ints([]int{huge}) }},
		{"BF stack", "BF stack", func(e *snap.Encoder) { robot(e); e.Int(huge) }},
		{"excursion log", "excursion log", func(e *snap.Encoder) { stats(e); e.Int(huge) }},
		{"meta table", "meta table", func(e *snap.Encoder) { meta(e); e.Int(huge) }},
		{"bucket count", "bucket count", func(e *snap.Encoder) { index(e); e.Int(huge) }},
		{"bucket members", "index bucket:", func(e *snap.Encoder) { index(e); e.Int(1); e.Int(huge) }},
		{"bucket heap", "index heap", func(e *snap.Encoder) { index(e); e.Int(1); e.Int(0); e.Int(huge) }},
		{"control", "", func(e *snap.Encoder) { index(e); e.Int(0) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var e snap.Encoder
			tc.write(&e)
			w, err := sim.NewWorld(tree.Path(3), 1)
			if err != nil {
				t.Fatal(err)
			}
			d := snap.NewDecoder(e.Bytes())
			err = NewAlgorithm(1).RestoreState(d, w.View(), nil)
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

// indexWire is the anchor index's checkpoint layout (anchor.Index.Snapshot)
// decoded into plain fields, so a test can corrupt one and re-encode. The
// meta table's (position, load) pairs are split into pos and loads.
type indexWire struct {
	minDepth   int
	loads, pos []int32
	buckets    []bucketWire
}

type bucketWire struct {
	members []int32
	heap    []int32 // (node, load) pairs, flattened
	cursor  int
}

func decodeIndexWire(t *testing.T, buf []byte) indexWire {
	t.Helper()
	d := snap.NewDecoder(buf)
	w := indexWire{minDepth: d.Int()}
	w.pos = make([]int32, d.SliceLen())
	w.loads = make([]int32, len(w.pos))
	for i := range w.pos {
		w.pos[i], w.loads[i] = d.Int32(), d.Int32()
	}
	w.buckets = make([]bucketWire, d.SliceLen())
	for i := range w.buckets {
		b := &w.buckets[i]
		b.members = make([]int32, d.SliceLen())
		for j := range b.members {
			b.members[j] = d.Int32()
		}
		b.heap = make([]int32, 2*d.SliceLen())
		for j := range b.heap {
			b.heap[j] = d.Int32()
		}
		b.cursor = d.Int()
	}
	if err := d.Err(); err != nil || d.Rest() != 0 {
		t.Fatalf("decode index: %v, %d bytes left", err, d.Rest())
	}
	return w
}

func (w indexWire) encode(e *snap.Encoder) {
	e.Int(w.minDepth)
	e.Int(len(w.pos))
	for i := range w.pos {
		e.Int32(w.pos[i])
		e.Int32(w.loads[i])
	}
	e.Int(len(w.buckets))
	for _, b := range w.buckets {
		e.Int(len(b.members))
		for _, v := range b.members {
			e.Int32(v)
		}
		e.Int(len(b.heap) / 2)
		for _, x := range b.heap {
			e.Int32(x)
		}
		e.Int(b.cursor)
	}
}

// bfdnCheckpoint returns the first checkpoint of a BFDN run (k=4, random
// n=400, saved every 20 rounds) and a constructor of fresh (world,
// algorithm) pairs to restore it into.
func bfdnCheckpoint(t *testing.T) ([]byte, func() (*sim.World, *Algorithm)) {
	t.Helper()
	const k = 4
	tr := tree.Random(400, 12, rand.New(rand.NewSource(8)))
	fresh := func() (*sim.World, *Algorithm) {
		w, err := sim.NewWorld(tr, k)
		if err != nil {
			t.Fatal(err)
		}
		return w, NewAlgorithm(k)
	}
	errStop := errors.New("stop")
	w, a := fresh()
	var ckpt []byte
	if _, err := sim.RunCheckpointedContext(context.Background(), w, a, 0, nil, 20, func(state []byte) error {
		ckpt = state
		return errStop
	}); !errors.Is(err, errStop) {
		t.Fatalf("want the save hook's error, got %v", err)
	}
	return ckpt, fresh
}

// TestRestoreRejectsUnresumableIndex corrupts the anchor index of a real
// BFDN checkpoint (k=4, random n=400, saved every 20 rounds) in ways that
// keep every length intact but leave an index the resumed run would index
// out of range with. RestoreCheckpoint must reject each one; the
// uncorrupted checkpoint must restore and run to completion.
func TestRestoreRejectsUnresumableIndex(t *testing.T) {
	ckpt, fresh := bfdnCheckpoint(t)
	// The index is the checkpoint's suffix: split it off by re-encoding the
	// restored index.
	w, a := fresh()
	if _, err := sim.RestoreCheckpoint(ckpt, w, a); err != nil {
		t.Fatal(err)
	}
	var ie snap.Encoder
	a.b.idx.Snapshot(&ie)
	prefix := ckpt[:len(ckpt)-len(ie.Bytes())]
	base := decodeIndexWire(t, ie.Bytes())
	open := -1 // a depth with an open node
	for d, b := range base.buckets {
		if len(b.members) > 0 {
			open = d
			break
		}
	}
	if open < 0 {
		t.Fatal("checkpoint has no open node")
	}
	closed := int32(-1) // a node with a table entry that is not open
	for v, p := range base.pos {
		if p < 0 {
			closed = int32(v)
			break
		}
	}
	for _, tc := range []struct {
		name, want string
		corrupt    func(w *indexWire)
	}{
		{"control", "", func(*indexWire) {}},
		{"position entries off the end", "position entry", func(w *indexWire) {
			for _, b := range w.buckets {
				for _, v := range b.members {
					w.pos[v] = 1 << 20
				}
			}
		}},
		{"negative depth cursor", "depth cursor", func(w *indexWire) { w.minDepth = -25 }},
		{"depth cursor past the buckets", "depth cursor", func(w *indexWire) { w.minDepth = len(w.buckets) + 1 }},
		{"more positioned nodes than members", "bucket position", func(w *indexWire) { w.pos[closed] = 0 }},
		{"round-robin cursor past the members", "round-robin cursor", func(w *indexWire) {
			w.buckets[open].cursor = len(w.buckets[open].members) + 1
		}},
		{"negative round-robin cursor", "round-robin cursor", func(w *indexWire) { w.buckets[open].cursor = -1 }},
		{"open node without a live heap entry", "live heap entry", func(w *indexWire) { w.buckets[open].heap = nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			iw := decodeIndexWire(t, ie.Bytes())
			tc.corrupt(&iw)
			e := snap.Encoder{}
			iw.encode(&e)
			state := append(append([]byte(nil), prefix...), e.Bytes()...)
			w, a := fresh()
			events, err := sim.RestoreCheckpoint(state, w, a)
			if tc.want != "" {
				if err == nil {
					t.Fatal("RestoreCheckpoint accepted an index the run cannot resume from")
				}
				if !strings.Contains(err.Error(), tc.want) || !errors.Is(err, snap.ErrCorrupt) {
					t.Fatalf("RestoreCheckpoint = %v, want a corrupt-snapshot error about the %s", err, tc.want)
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

// TestResumeRejectsStateOffTheTree corrupts a BFDN checkpoint in ways only
// the tree can reveal: a robot anchored at a node that does not exist, or
// at the wrong depth, and two open nodes swapped between their depth
// buckets (positions and heap entries kept consistent). RestoreCheckpoint
// must reject each one instead of leaving the resumed run to index out of
// range; the uncorrupted checkpoint must restore and run to completion.
func TestResumeRejectsStateOffTheTree(t *testing.T) {
	ckpt, fresh := bfdnCheckpoint(t)
	swap := func(iw *indexWire) { // first members of the first two open buckets
		var ds []int
		for d, b := range iw.buckets {
			if len(b.members) > 0 {
				ds = append(ds, d)
			}
		}
		if len(ds) < 2 {
			t.Fatal("checkpoint has open nodes at fewer than two depths")
		}
		x, y := iw.buckets[ds[0]].members[0], iw.buckets[ds[1]].members[0]
		rename := func(v int32) int32 {
			switch v {
			case x:
				return y
			case y:
				return x
			}
			return v
		}
		for _, b := range iw.buckets {
			for i := range b.members {
				b.members[i] = rename(b.members[i])
			}
			for i := 0; i < len(b.heap); i += 2 {
				b.heap[i] = rename(b.heap[i])
			}
		}
		iw.pos[x], iw.pos[y] = iw.pos[y], iw.pos[x]
		iw.loads[x], iw.loads[y] = iw.loads[y], iw.loads[x]
	}
	for _, tc := range []struct {
		name, want string
		corrupt    func(b *BFDN)
	}{
		{"control", "", func(*BFDN) {}},
		{"anchor outside the tree", "anchored at -5", func(b *BFDN) { b.rs[0].anchor = -5 }},
		{"anchor at the wrong depth", "robot slot 1", func(b *BFDN) { b.rs[1].anchorDepth += 3 }},
		{"open nodes swapped between buckets", "open node", func(b *BFDN) {
			var ie snap.Encoder
			b.idx.Snapshot(&ie)
			iw := decodeIndexWire(t, ie.Bytes())
			swap(&iw)
			var e snap.Encoder
			iw.encode(&e)
			if err := b.idx.Restore(snap.NewDecoder(e.Bytes())); err != nil {
				t.Fatalf("the swapped index should pass Restore: %v", err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, a := fresh()
			events, err := sim.RestoreCheckpoint(ckpt, w, a)
			if err != nil {
				t.Fatal(err)
			}
			tc.corrupt(a.b)
			state, err := sim.EncodeCheckpoint(w, a, events)
			if err != nil {
				t.Fatal(err)
			}
			w, a = fresh()
			events, err = sim.RestoreCheckpoint(state, w, a)
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
