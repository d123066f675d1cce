package sim

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"bfdn/internal/tree"
)

func TestRunCheckedAcceptsDFS(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, tr := range []*tree.Tree{
		tree.Path(12), tree.Star(9), tree.KAry(2, 4), tree.Random(120, 9, rng),
	} {
		w, err := NewWorld(tr, 2)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunChecked(w, soloDFS{}, 0)
		if err != nil {
			t.Fatalf("%s: %v", tr, err)
		}
		if !res.FullyExplored || !res.AllAtRoot {
			t.Fatalf("%s: incomplete", tr)
		}
	}
}

// teleporter cheats: it moves a robot two levels at once by issuing a Down
// to a grandchild. The World must reject it (and the checker would, too).
type teleporter struct{}

func (teleporter) SelectMoves(v *View, _ []ExploreEvent) ([]Move, error) {
	if tk, ok := v.ReserveDangling(v.Pos(0)); ok {
		return []Move{{Kind: Explore, Ticket: tk}}, nil
	}
	// Try to jump back to the root directly from depth ≥ 2.
	if v.DepthOf(v.Pos(0)) >= 2 {
		return []Move{{Kind: Down, Child: tree.Root}}, nil
	}
	if v.Pos(0) != tree.Root {
		return []Move{{Kind: Up}}, nil
	}
	return []Move{{Kind: Stay}}, nil
}

func TestWorldRejectsTeleport(t *testing.T) {
	w, err := NewWorld(tree.Path(5), 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunChecked(w, teleporter{}, 0)
	if err == nil {
		t.Fatal("teleporting algorithm accepted")
	}
	if !strings.Contains(err.Error(), "not a child") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestCheckerDetectsCorruptedState(t *testing.T) {
	// Corrupt the world behind the checker's back; Check must notice.
	w, err := NewWorld(tree.Path(6), 1)
	if err != nil {
		t.Fatal(err)
	}
	c := NewChecker(w)
	// Teleport the robot manually.
	w.pos[0] = 3
	if err := c.Check(); err == nil {
		t.Error("checker missed a robot jump")
	}
	// Repair position, corrupt the explored count.
	w.pos[0] = 0
	c = NewChecker(w)
	w.exploredCount = 5
	if err := c.Check(); err == nil {
		t.Error("checker missed a bad explored count")
	}
	// Corrupt connectivity: mark a node explored without its parent.
	w.exploredCount = 2
	w.dangling[4] = int32(w.t.NumChildren(4))
	if err := c.Check(); err == nil {
		t.Error("checker missed a disconnected explored set")
	}
}

// shuttle explores a path depth-first and then walks between the root and
// its child forever, so only a round cap ends its run.
type shuttle struct{}

func (shuttle) SelectMoves(v *View, _ []ExploreEvent) ([]Move, error) {
	pos := v.Pos(0)
	if tk, ok := v.ReserveDangling(pos); ok {
		return []Move{{Kind: Explore, Ticket: tk}}, nil
	}
	if pos != tree.Root {
		return []Move{{Kind: Up}}, nil
	}
	return []Move{{Kind: Down, Child: v.ExploredChildren(tree.Root)[0]}}, nil
}

// TestRunCheckedSharesRunsRoundCap: RunChecked drives Run's round loop, so
// a run that never stops hits the same default cap at the same round.
func TestRunCheckedSharesRunsRoundCap(t *testing.T) {
	rounds := make([]int, 2)
	for i, run := range []func(*World, Algorithm, int64) (Result, error){Run, RunChecked} {
		w, err := NewWorld(tree.Path(4), 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := run(w, shuttle{}, 0); !errors.Is(err, ErrRoundLimit) {
			t.Fatalf("run %d: %v, want the round limit", i, err)
		}
		rounds[i] = w.Round()
	}
	if rounds[0] != rounds[1] {
		t.Fatalf("Run stopped at round %d, RunChecked at %d", rounds[0], rounds[1])
	}
}

// stopAndCorrupt moves no robot, which ends the run, and corrupts the
// world's explored count in that same last round.
type stopAndCorrupt struct{ w *World }

func (s stopAndCorrupt) SelectMoves(*View, []ExploreEvent) ([]Move, error) {
	s.w.exploredCount = 99
	return []Move{{Kind: Stay}}, nil
}

// TestRunCheckedChecksTheLastRound: the checker also runs after the round
// in which no robot moves.
func TestRunCheckedChecksTheLastRound(t *testing.T) {
	w, err := NewWorld(tree.Path(4), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunChecked(w, stopAndCorrupt{w}, 0); err == nil || !strings.Contains(err.Error(), "explored count") {
		t.Fatalf("RunChecked = %v, want the checker's explored-count error", err)
	}
}
