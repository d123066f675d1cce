package sim

import (
	"context"
	"fmt"

	"bfdn/internal/tree"
)

// Checker validates per-round model invariants of a World. It holds both
// sides of the abstraction (hidden tree and positions), so it lives in
// tests and harnesses, never in algorithms.
type Checker struct {
	w       *World
	prevPos []tree.NodeID
}

// NewChecker snapshots the world's current state.
func NewChecker(w *World) *Checker {
	return &Checker{
		w:       w,
		prevPos: append([]tree.NodeID(nil), w.pos...),
	}
}

// Check validates the state after one Apply call: robots moved by at most
// one edge, the explored set is connected and correctly counted, and the
// discovered-edge accounting matches a recount. It updates the snapshot.
func (c *Checker) Check() error {
	w := c.w
	for i, p := range w.pos {
		prev := c.prevPos[i]
		if p != prev && w.t.Parent(p) != prev && w.t.Parent(prev) != p {
			return fmt.Errorf("sim: robot %d jumped from %d to %d (not adjacent)", i, prev, p)
		}
		if !w.explored(p) {
			return fmt.Errorf("sim: robot %d stands on unexplored node %d", i, p)
		}
	}
	count := 0
	discovered := 0
	for v := 0; v < w.t.N(); v++ {
		if !w.explored(tree.NodeID(v)) {
			continue
		}
		count++
		discovered += w.t.NumChildren(tree.NodeID(v))
		if tree.NodeID(v) != tree.Root && !w.explored(w.t.Parent(tree.NodeID(v))) {
			return fmt.Errorf("sim: explored node %d has unexplored parent", v)
		}
		nk := w.nextKid(tree.NodeID(v))
		if nk < 0 {
			return fmt.Errorf("sim: node %d has dangling count %d beyond degree", v, w.dangling[v])
		}
		for j := 0; j < nk; j++ {
			if !w.explored(w.t.Children(tree.NodeID(v))[j]) {
				return fmt.Errorf("sim: node %d: child cursor covers unexplored child", v)
			}
		}
	}
	if count != w.exploredCount {
		return fmt.Errorf("sim: explored count %d, recount %d", w.exploredCount, count)
	}
	if discovered != w.metrics.DiscoveredEdges {
		return fmt.Errorf("sim: discovered edges %d, recount %d", w.metrics.DiscoveredEdges, discovered)
	}
	copy(c.prevPos, w.pos)
	return nil
}

// RunChecked is Run with a Checker validating the world after every round,
// the last one included; it is O(n) per round and intended for tests on
// small trees.
func RunChecked(w *World, a Algorithm, maxRounds int64) (Result, error) {
	return runCheckpointed(context.Background(), w, a, maxRounds, nil, 0, nil, nil, NewChecker(w).Check)
}
