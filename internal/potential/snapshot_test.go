package potential

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"bfdn/internal/sim"
	"bfdn/internal/tree"
)

// TestRestoreRebuildsCutLedger takes a checkpoint of a real run (k=4,
// random n=120, round 10) from an instance whose ledger was cut to its root
// entry just before. Restoring must rebuild the ledger from the world, and
// the resumed run must finish exactly as the uninterrupted one; trusting
// the cut ledger would index past it on the first resumed round.
func TestRestoreRebuildsCutLedger(t *testing.T) {
	const k = 4
	tr, err := tree.Generate(tree.FamilyRandom, 120, 8, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	fresh := func() (*sim.World, *Potential) {
		w, err := sim.NewWorld(tr, k)
		if err != nil {
			t.Fatal(err)
		}
		return w, New(k)
	}
	w, p := fresh()
	want, err := sim.RunContext(context.Background(), w, p, 0)
	if err != nil {
		t.Fatal(err)
	}

	errStop := errors.New("stop")
	w, p = fresh()
	var ckpt []byte
	if _, err := sim.RunCheckpointedContext(context.Background(), w, p, 0, nil, 10, func(state []byte) error {
		ckpt = state
		return errStop
	}); !errors.Is(err, errStop) {
		t.Fatalf("want the save hook's error, got %v", err)
	}
	w, p = fresh()
	events, err := sim.RestoreCheckpoint(ckpt, w, p)
	if err != nil {
		t.Fatal(err)
	}
	root := p.open.Open(tree.Root)
	p.open.Reset()
	p.open.Update(w.View(), nil) // the root's entry only
	if n := len(p.open.Counts()); n != 1 {
		t.Fatalf("cut ledger has %d entries, want 1", n)
	}
	p.open.Counts()[tree.Root] = root
	cut, err := sim.EncodeCheckpoint(w, p, events)
	if err != nil {
		t.Fatal(err)
	}

	w, p = fresh()
	if events, err = sim.RestoreCheckpoint(cut, w, p); err != nil {
		t.Fatal(err)
	}
	got, err := sim.RunCheckpointedContext(context.Background(), w, p, 0, events, 0, nil)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed result differs:\n got %+v\nwant %+v", got, want)
	}
}
