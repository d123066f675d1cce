package sim

import (
	"math"
	"testing"

	"bfdn/internal/tree"
)

// TestReservationSurvivesLargeRound pins the round-counter width contract
// for a world whose round counter has passed math.MaxInt32: World.round and
// Ticket.round share the same int type, so a ticket issued in such a round
// still matches it when applied. The per-round resTable, which counts the
// dangling edges handed out at each node, is keyed by node and emptied on
// every committed round, never by round number, so two reservations at one
// node in one round must issue distinct children and the next round must
// start from a fresh count.
func TestReservationSurvivesLargeRound(t *testing.T) {
	big := int64(math.MaxInt32) + 7
	if int64(int(big)) != big {
		t.Skip("int is 32-bit on this platform; the round counter and the reservation table truncate together")
	}
	tr := tree.Star(4)
	w, err := NewWorld(tr, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a long-lived world whose counter has passed the old int32
	// range (rounds where nobody moves still advance it).
	w.round = int(big)

	v := w.View()
	tk1, ok := v.ReserveDangling(tree.Root)
	if !ok {
		t.Fatal("first reservation failed")
	}
	if got := v.UnreservedDanglingAt(tree.Root); got != tr.NumChildren(tree.Root)-1 {
		t.Fatalf("after one reservation, %d unreserved dangling edges, want %d (reservation table lost the round)",
			got, tr.NumChildren(tree.Root)-1)
	}
	tk2, ok := v.ReserveDangling(tree.Root)
	if !ok {
		t.Fatal("second reservation failed")
	}
	if tk1.child == tk2.child {
		t.Fatalf("both reservations issued the same dangling edge (child %d): reservedRound truncated", tk1.child)
	}

	// The tickets must be applicable in the round they were issued.
	moves := []Move{
		{Kind: Explore, Ticket: tk1},
		{Kind: Explore, Ticket: tk2},
		{Kind: Stay},
	}
	events, anyMoved, err := w.Apply(moves)
	if err != nil {
		t.Fatal(err)
	}
	if !anyMoved || len(events) != 2 {
		t.Fatalf("apply at large round: anyMoved=%v, %d explore events, want 2", anyMoved, len(events))
	}
	if w.Round() != int(big)+1 {
		t.Fatalf("round advanced to %d, want %d", w.Round(), int(big)+1)
	}

	// A reservation in the next round must start a fresh per-round count.
	if got := v.UnreservedDanglingAt(tree.Root); got != 1 {
		t.Fatalf("next round reports %d unreserved dangling edges, want 1", got)
	}
}
