package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"bfdn/internal/snap"
	"bfdn/internal/tree"
)

// TestResetGrowCycleReinitializesArrays drives one world through a
// grow/shrink/grow cycle with full runs in between, so the third Reset
// reuses backing arrays still holding a completed run's state (explored
// flags, positions). Every per-node and per-robot array
// must read as freshly constructed afterwards — the CSR flattening's grow()
// helper deliberately leaves contents unspecified, making Reset solely
// responsible for re-initialization.
func TestResetGrowCycleReinitializesArrays(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	big := tree.Random(800, 30, rng)
	small := tree.Path(6)
	w, err := NewWorld(big, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(w, soloDFS{}, 0); err != nil {
		t.Fatal(err)
	}
	if err := w.Reset(small, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(w, soloDFS{}, 0); err != nil {
		t.Fatal(err)
	}
	// The grow step back to the big tree: len(dangling) < big.N() right now,
	// but the capacity from the first run is still there — along with the
	// first run's data in it.
	if err := w.Reset(big, 5); err != nil {
		t.Fatal(err)
	}
	if w.exploredCount != 1 {
		t.Errorf("exploredCount = %d after Reset, want 1", w.exploredCount)
	}
	for i, d := range w.dangling {
		want := int32(-1)
		if i == int(tree.Root) {
			want = int32(big.NumChildren(tree.Root))
		}
		if d != want {
			t.Fatalf("dangling[%d] = %d after grow Reset, want %d", i, d, want)
		}
	}
	for i, p := range w.pos {
		if p != tree.Root {
			t.Fatalf("pos[%d] = %d after grow Reset, want root", i, p)
		}
	}
	if w.round != 0 {
		t.Errorf("round = %d after Reset, want 0", w.round)
	}
	got, err := Run(w, soloDFS{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := runFresh(t, big, 5)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("grow-cycle run %+v differs from fresh run %+v", got, want)
	}
}

// TestResetAndRestoreDropLiveReservations resets and restores a world in
// the middle of a round, with reservations outstanding: neither may leave a
// reservation behind for the next run to read, whatever the table's state.
func TestResetAndRestoreDropLiveReservations(t *testing.T) {
	tr := tree.Star(9)
	nd := tr.NumChildren(tree.Root)
	w, err := NewWorld(tr, 3)
	if err != nil {
		t.Fatal(err)
	}
	var start snap.Encoder
	w.Snapshot(&start)
	v := w.View()
	reserve := func(cycle int) {
		t.Helper()
		for i := 0; i < 2; i++ {
			if _, ok := v.ReserveDangling(tree.Root); !ok {
				t.Fatalf("cycle %d: reservation %d failed", cycle, i)
			}
		}
		if got := v.UnreservedDanglingAt(tree.Root); got != nd-2 {
			t.Fatalf("cycle %d: %d unreserved with 2 live reservations, want %d", cycle, got, nd-2)
		}
	}
	for cycle := 0; cycle < 5; cycle++ {
		reserve(cycle)
		if err := w.Reset(tr, 3); err != nil {
			t.Fatal(err)
		}
		if got := v.UnreservedDanglingAt(tree.Root); got != nd {
			t.Fatalf("cycle %d: %d unreserved after Reset, want %d (phantom reservation)", cycle, got, nd)
		}
		reserve(cycle)
		if err := w.Restore(snap.NewDecoder(start.Bytes())); err != nil {
			t.Fatal(err)
		}
		if got := v.UnreservedDanglingAt(tree.Root); got != nd {
			t.Fatalf("cycle %d: %d unreserved after Restore, want %d (phantom reservation)", cycle, got, nd)
		}
	}
}

// TestReservationTableGrows reserves, in one round, at more distinct nodes
// than the reservation table's first allocation holds, so the table must
// grow with live entries in it: every count must survive the rehash, and
// the next round must start empty.
func TestReservationTableGrows(t *testing.T) {
	const fan = 4 * resTableMinSlots
	b := tree.NewBuilder()
	for i := 0; i < fan; i++ {
		c := b.AddChild(tree.Root)
		b.AddChild(c)
		b.AddChild(c)
	}
	tr := b.Build()
	w, err := NewWorld(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Explore the root's children one round at a time, walking back up in
	// between, so that every child is explored with both its edges dangling.
	v := w.View()
	for i := 0; i < fan; i++ {
		tk, ok := v.ReserveDangling(tree.Root)
		if !ok {
			t.Fatalf("root reservation %d failed", i)
		}
		if _, _, err := w.Apply([]Move{{Kind: Explore, Ticket: tk}}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := w.Apply([]Move{{Kind: Up}}); err != nil {
			t.Fatal(err)
		}
	}
	kids := v.ExploredChildren(tree.Root)
	if len(kids) != fan {
		t.Fatalf("%d explored children of the root, want %d", len(kids), fan)
	}
	seen := make(map[tree.NodeID]bool)
	for _, c := range kids {
		tk, ok := v.ReserveDangling(c)
		if !ok {
			t.Fatalf("reservation at %d failed", c)
		}
		seen[tk.child] = true
	}
	if len(w.res.slots) < 2*fan {
		t.Fatalf("table has %d slots for %d entries, want at least twice as many", len(w.res.slots), fan)
	}
	for _, c := range kids {
		if got := v.UnreservedDanglingAt(c); got != 1 {
			t.Fatalf("node %d: %d unreserved after one reservation, want 1", c, got)
		}
		tk, ok := v.ReserveDangling(c)
		if !ok || seen[tk.child] {
			t.Fatalf("second reservation at %d: ok=%v, reissued=%v", c, ok, seen[tk.child])
		}
		if _, ok := v.ReserveDangling(c); ok {
			t.Fatalf("third reservation at %d succeeded with two dangling edges", c)
		}
	}
	if _, _, err := w.Apply([]Move{{Kind: Stay}}); err != nil {
		t.Fatal(err)
	}
	for _, c := range kids {
		if got := v.UnreservedDanglingAt(c); got != 2 {
			t.Fatalf("node %d: %d unreserved in the next round, want 2", c, got)
		}
	}
}

// TestResetGrowKReinitializesRobots grows only the robot count: the new
// robots' positions and per-robot metrics must start from scratch even
// though the per-node arrays are reused untouched-size.
func TestResetGrowKReinitializesRobots(t *testing.T) {
	tr := tree.KAry(2, 4)
	w, err := NewWorld(tr, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(w, soloDFS{}, 0); err != nil {
		t.Fatal(err)
	}
	if err := w.Reset(tr, 24); err != nil {
		t.Fatal(err)
	}
	if len(w.pos) != 24 || len(w.metrics.MovesPerRobot) != 24 {
		t.Fatalf("per-robot arrays sized %d/%d after Reset, want 24/24",
			len(w.pos), len(w.metrics.MovesPerRobot))
	}
	for i := 0; i < 24; i++ {
		if w.pos[i] != tree.Root {
			t.Errorf("pos[%d] = %d, want root", i, w.pos[i])
		}
		if w.metrics.MovesPerRobot[i] != 0 {
			t.Errorf("MovesPerRobot[%d] = %d, want 0", i, w.metrics.MovesPerRobot[i])
		}
	}
}
