package sim_test

import (
	"errors"
	"testing"

	"bfdn/internal/offline"
	"bfdn/internal/sim"
	"bfdn/internal/snap"
	"bfdn/internal/tree"
)

// TestRestoreCheckpointRejectsEventsOutsideTree restores checkpoints whose
// pending explore events name nodes the tree does not have. Restore reads
// the world's dangling count of each event's parent, so it must reject
// them as corrupt instead of indexing past the node arrays.
func TestRestoreCheckpointRejectsEventsOutsideTree(t *testing.T) {
	tr := tree.Path(5)
	for _, ev := range []sim.ExploreEvent{
		{Parent: 1 << 30, Child: 1},
		{Parent: 0, Child: -7},
	} {
		w, err := sim.NewWorld(tr, 1)
		if err != nil {
			t.Fatal(err)
		}
		ckpt, err := sim.EncodeCheckpoint(w, &offline.DFS{}, []sim.ExploreEvent{ev})
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := sim.NewWorld(tr, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.RestoreCheckpoint(ckpt, fresh, &offline.DFS{}); !errors.Is(err, snap.ErrCorrupt) {
			t.Errorf("event %d→%d: RestoreCheckpoint = %v, want a corrupt-checkpoint error", ev.Parent, ev.Child, err)
		}
	}
}
