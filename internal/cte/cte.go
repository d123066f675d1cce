// Package cte implements the Collective Tree Exploration algorithm of
// Fraigniaud, Gasieniec, Kowalski and Pelc (2006) — reference [10] of the
// paper — as the baseline BFDN is compared against.
//
// CTE keeps the robots in groups: all robots located at a node v whose
// subtree still contains unexplored edges split as evenly as possible among
// the "alive" targets at v (explored children whose subtree has a dangling
// edge, and the dangling edges at v itself); robots at a node whose subtree
// is fully explored move up towards the root. Groups may traverse a dangling
// edge together. CTE explores any tree in O(n/log k + D) rounds, which is
// the best known competitive ratio, O(k/log k); its additive overhead over
// 2n/k can however reach Ω(Dk/log k) (Higashikawa et al. [11]), which is
// what experiment E10 exhibits against BFDN.
package cte

import (
	"fmt"
	"math/rand"
	"slices"

	"bfdn/internal/sim"
	"bfdn/internal/snap"
	"bfdn/internal/tree"
)

// CTE is the algorithm state. It implements sim.Algorithm.
type CTE struct {
	k int
	// open counts the dangling edges in each explored subtree T(v).
	open sim.OpenLedger
	// scratch buffers reused across rounds: moves is the returned move
	// vector; ents is the robots-sorted-by-position grouping (replacing the
	// map[NodeID][]int that was rebuilt — one allocation per occupied node —
	// every round); targets is the per-group alive-target list.
	moves   []sim.Move
	ents    posEntries
	targets []target
}

// posEntry packs a robot's position and id into one uint64 (pos<<32 | id,
// both non-negative), so ordering the keys numerically IS the (pos, id) pair
// order — robots within a group stay in index order, exactly as the
// map-based grouping appended them — and the per-round sort runs
// comparison-free through slices.Sort instead of through sort.Interface
// dynamic dispatch. Keys are distinct (ids are), so the unstable pdqsort
// still yields a deterministic permutation.
type posEntry uint64

func packPos(pos tree.NodeID, id int32) posEntry { return posEntry(pos)<<32 | posEntry(id) }

func (e posEntry) pos() tree.NodeID { return tree.NodeID(e >> 32) }
func (e posEntry) id() int32        { return int32(e & 0xffffffff) }

type posEntries []posEntry

// target is one alive destination of a group: an explored child with an open
// subtree, or a dangling edge at the node itself.
type target struct {
	kind   sim.MoveKind
	child  tree.NodeID
	ticket sim.Ticket
}

var _ sim.Algorithm = (*CTE)(nil)

// New returns a CTE instance for k robots.
func New(k int) *CTE {
	return &CTE{
		k:     k,
		moves: make([]sim.Move, k),
		ents:  make(posEntries, 0, k),
	}
}

// Reset re-initializes c to the start state of a fresh New(k) while keeping
// every scratch buffer, so a recycled instance runs without constructing
// anything. A run on a Reset instance is byte-identical to a run on a fresh
// one; the sweep engine's algorithm-reuse path relies on this.
func (c *CTE) Reset(k int) {
	c.k = k
	if cap(c.moves) >= k {
		c.moves = c.moves[:k]
	} else {
		c.moves = make([]sim.Move, k)
	}
	for i := range c.moves {
		c.moves[i] = sim.Move{}
	}
	c.open.Reset()
	c.ents = c.ents[:0]
	c.targets = c.targets[:0]
}

// SelectMoves implements sim.Algorithm.
func (c *CTE) SelectMoves(v *sim.View, events []sim.ExploreEvent) ([]sim.Move, error) {
	c.open.Update(v, events)

	// Group robots by position: sort (position, robot) pairs in reusable
	// scratch and walk the runs of equal position. Groups are disjoint by
	// node and reservations are per-node, so processing groups in ascending
	// node order (rather than the old map iteration order) produces the
	// identical move vector with zero per-round allocation.
	c.ents = c.ents[:0]
	for i := 0; i < c.k; i++ {
		c.ents = append(c.ents, packPos(v.Pos(i), int32(i)))
	}
	slices.Sort(c.ents)

	for lo := 0; lo < len(c.ents); {
		pos := c.ents[lo].pos()
		hi := lo + 1
		for hi < len(c.ents) && c.ents[hi].pos() == pos {
			hi++
		}
		if err := c.decideGroup(v, pos, c.ents[lo:hi]); err != nil {
			return nil, err
		}
		lo = hi
	}
	return c.moves, nil
}

// decideGroup assigns this round's moves for the robots located at node.
func (c *CTE) decideGroup(v *sim.View, node tree.NodeID, robots []posEntry) error {
	if c.open.Open(node) == 0 {
		// Subtree fully explored: head home.
		for _, e := range robots {
			if node == tree.Root {
				c.moves[e.id()] = sim.Move{Kind: sim.Stay}
			} else {
				c.moves[e.id()] = sim.Move{Kind: sim.Up}
			}
		}
		return nil
	}
	// Alive targets: explored children with open subtrees, then dangling
	// edges at node (one target per dangling edge, shared tickets).
	c.targets = c.targets[:0]
	for _, ch := range v.ExploredChildren(node) {
		if c.open.Open(ch) > 0 {
			c.targets = append(c.targets, target{kind: sim.Down, child: ch})
		}
	}
	nd := v.UnreservedDanglingAt(node)
	if nd > len(robots) {
		nd = len(robots) // no point opening more edges than robots present
	}
	for j := 0; j < nd; j++ {
		tk, ok := v.ReserveDangling(node)
		if !ok {
			return fmt.Errorf("cte: node %d: reservation failed with %d reported dangling", node, nd)
		}
		c.targets = append(c.targets, target{kind: sim.Explore, ticket: tk})
	}
	if len(c.targets) == 0 {
		// open>0 but nothing actionable at node: all dangling edges here were
		// reserved by other groups (impossible: groups are disjoint by node)
		// — defensive error.
		return fmt.Errorf("cte: node %d: open subtree without alive targets", node)
	}
	// Even split: robot j goes to target j mod len(targets).
	for j, e := range robots {
		t := c.targets[j%len(c.targets)]
		switch t.kind {
		case sim.Down:
			c.moves[e.id()] = sim.Move{Kind: sim.Down, Child: t.child}
		case sim.Explore:
			c.moves[e.id()] = sim.Move{Kind: sim.Explore, Ticket: t.ticket}
		}
	}
	return nil
}

// SnapshotState implements sim.Snapshotter (DESIGN.md S30). CTE's only
// cross-round memory is its open-edge ledger, which RestoreState rebuilds
// from the restored world, so the checkpoint holds nothing of CTE's own;
// the grouping and target buffers are rebuilt from the view every round.
func (c *CTE) SnapshotState(*snap.Encoder) {}

// RestoreState implements sim.Snapshotter.
func (c *CTE) RestoreState(_ *snap.Decoder, v *sim.View, pending []sim.ExploreEvent) error {
	c.open.Rebuild(v, pending)
	return nil
}

// NewAlgorithm is a convenience constructor mirroring core.NewAlgorithm.
func NewAlgorithm(k int) *CTE { return New(k) }

// Recycle is the factory-reset hook for the sweep engine's algorithm-reuse
// path (sweep.Point.ResetAlgorithm): it resets and returns the worker's
// previous instance when it is a CTE, and returns nil (fresh construction)
// otherwise. CTE takes no configuration, so any instance is recyclable.
func Recycle(prev sim.Algorithm, k int, _ *rand.Rand) sim.Algorithm {
	if c, ok := prev.(*CTE); ok {
		c.Reset(k)
		return c
	}
	return nil
}
