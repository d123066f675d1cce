package sim_test

import (
	"errors"
	"strings"
	"testing"

	"bfdn/internal/offline"
	"bfdn/internal/sim"
	"bfdn/internal/snap"
	"bfdn/internal/tree"
)

// TestRestoreCheckpointRejectsEventsOutsideTree restores checkpoints whose
// pending explore events are not edges of the tree, name a robot the world
// does not have, or report a discovery the world does not hold. Restore
// reads the world's dangling count of each event's parent, and the resumed
// algorithms index by parent, child and robot, so it must reject them as
// corrupt instead of indexing past their arrays.
func TestRestoreCheckpointRejectsEventsOutsideTree(t *testing.T) {
	tr := tree.Path(5)
	for _, ev := range []sim.ExploreEvent{
		{Parent: 1 << 30, Child: 1},
		{Parent: 0, Child: -7},
		{Parent: 2, Child: 1},
		{Parent: 0, Child: 0},
		{Parent: 0, Child: 1, Robot: 1},
		{Parent: 0, Child: 1, Robot: -1},
		{Parent: 0, Child: 1, NewDangling: 1},
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
			t.Errorf("event %+v: RestoreCheckpoint = %v, want a corrupt-checkpoint error", ev, err)
		}
	}
}

// worldWire is World.Snapshot's layout up to the round counter, with zero
// metrics after it, so a test can write a state field by field.
type worldWire struct {
	pos      []int32
	dangling []int32
	round    int
}

func (ww worldWire) encode() []byte {
	var e snap.Encoder
	e.Int(len(ww.pos))
	e.Int(len(ww.dangling))
	for _, p := range ww.pos {
		e.Int32(p)
	}
	e.Int32s(ww.dangling)
	e.Int(ww.round)
	e.Int(0)
	e.Int(0)
	e.Int64(0)
	e.Int64s(make([]int64, len(ww.pos)))
	e.Int(0)
	e.Int(0)
	e.Int(0)
	return e.Bytes()
}

// TestWorldRestoreRejectsUnresumableState restores two-robot world states
// on the path 0–1–2–3–4 that are well framed but could not be continued:
// each must be rejected as corrupt, while the uncorrupted state restores.
func TestWorldRestoreRejectsUnresumableState(t *testing.T) {
	base := func() worldWire { // 0, 1 and 2 explored; robots at 2 and 0
		return worldWire{
			pos:      []int32{2, 0},
			dangling: []int32{0, 0, 1, -1, -1},
			round:    3,
		}
	}
	for _, tc := range []struct {
		name, want string
		corrupt    func(ww *worldWire)
	}{
		{"control", "", func(*worldWire) {}},
		{"robot on an unexplored node", "robot 0", func(ww *worldWire) { ww.pos[0] = 3 }},
		{"robot outside the tree", "robot 1", func(ww *worldWire) { ww.pos[1] = -25 }},
		// A node's child cursor is its child count minus its dangling word:
		// cursor -1 at node 2 (one child) is word 2, cursor 2 at leaf 4 is -2.
		{"negative child cursor", "outside [-1, 1]", func(ww *worldWire) { ww.dangling[2] = 2 }},
		{"child cursor past the children", "outside [-1, 0]", func(ww *worldWire) { ww.dangling[4] = -2 }},
		{"child cursor over an unexplored child", "explored children", func(ww *worldWire) { ww.dangling[2] = 0 }},
		{"root unexplored", "root", func(ww *worldWire) {
			ww.dangling[0], ww.pos = -1, []int32{2, 1}
		}},
		{"explored node under an unexplored parent", "unexplored parent", func(ww *worldWire) {
			ww.dangling[4] = 0
		}},
		{"negative round", "round -1", func(ww *worldWire) { ww.round = -1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := sim.NewWorld(tree.Path(5), 2)
			if err != nil {
				t.Fatal(err)
			}
			ww := base()
			tc.corrupt(&ww)
			err = w.Restore(snap.NewDecoder(ww.encode()))
			if tc.want == "" {
				if err != nil || w.ExploredCount() != 3 || w.Round() != 3 {
					t.Fatalf("Restore = %v, explored %d at round %d; want 3 at round 3", err, w.ExploredCount(), w.Round())
				}
				return
			}
			if !errors.Is(err, snap.ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Restore = %v, want a corrupt-snapshot error about the %s", err, tc.want)
			}
		})
	}
}
