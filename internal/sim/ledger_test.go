package sim_test

import (
	"math/rand"
	"testing"

	"bfdn/internal/cte"
	"bfdn/internal/potential"
	"bfdn/internal/sim"
	"bfdn/internal/tree"
	"bfdn/internal/treemining"
)

// TestOpenSubtreeCountsExact validates the ledger's incremental per-subtree
// dangling-edge counts, and the counts Rebuild derives from the world at a
// checkpoint, against a brute-force recount after every round, on the event
// streams of each algorithm that decides from them. The counts
// drive every routing decision of those algorithms, so silent drift would
// corrupt them without necessarily failing the end-to-end checks.
func TestOpenSubtreeCountsExact(t *testing.T) {
	const k = 5
	for _, tc := range []struct {
		name string
		alg  sim.Algorithm
	}{
		{"cte", cte.New(k)},
		{"treemining", treemining.New(k)},
		{"potential", potential.New(k)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := tree.Random(200, 12, rand.New(rand.NewSource(73)))
			w, err := sim.NewWorld(tr, k)
			if err != nil {
				t.Fatal(err)
			}
			v := w.View()
			var l sim.OpenLedger
			l.Update(v, nil) // seed the root before the first round moves
			var events []sim.ExploreEvent
			for round := 0; ; round++ {
				moves, err := tc.alg.SelectMoves(v, events)
				if err != nil {
					t.Fatal(err)
				}
				ev, moved, err := w.Apply(moves)
				if err != nil {
					t.Fatal(err)
				}
				if !moved {
					break
				}
				events = ev
				// A ledger rebuilt from the world as a restore would see it
				// (events pending) agrees with the incremental one before
				// and after the Update that folds the events in.
				var rb sim.OpenLedger
				rb.Rebuild(v, events)
				for node := tree.NodeID(0); int(node) < tr.N(); node++ {
					if v.Explored(node) && rb.Open(node) != l.Open(node) {
						t.Fatalf("round %d node %d: rebuilt %d, ledger %d before the update", round, node, rb.Open(node), l.Open(node))
					}
				}
				l.Update(v, events)
				rb.Update(v, events)
				for node := tree.NodeID(0); int(node) < tr.N(); node++ {
					if !v.Explored(node) {
						continue
					}
					want := recountOpen(v, node)
					if got := int(l.Open(node)); got != want {
						t.Fatalf("round %d node %d: ledger %d, recount %d", round, node, got, want)
					}
					if got := int(rb.Open(node)); got != want {
						t.Fatalf("round %d node %d: rebuilt ledger %d, recount %d", round, node, got, want)
					}
				}
			}
			if !w.FullyExplored() {
				t.Fatal("incomplete")
			}
		})
	}
}

// recountOpen counts dangling edges in T(node) from the view.
func recountOpen(v *sim.View, node tree.NodeID) int {
	total := 0
	stack := []tree.NodeID{node}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		total += v.DanglingAt(u)
		stack = append(stack, v.ExploredChildren(u)...)
	}
	return total
}
