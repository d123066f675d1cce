// Package potential implements collective tree exploration by the Potential
// Function Method of Cosson and Massoulié, "Collective Tree Exploration via
// Potential Function Method" (arXiv:2311.01354, ITCS 2024) — the simplest
// guarantee in the BFDN research line, of the form 2n/k + O(D²) without the
// log k factor of BFDN's Theorem 1.
//
// The algorithm is a global greedy analysed in the paper through a potential
// function that combines the robots' distances to their assigned targets
// with the remaining amount of unexplored boundary. The reproduction
// instantiates the strategy the analysis certifies: every round the dangling
// (unexplored) edges are enumerated in depth-first (preorder) order of the
// partially explored tree, robot i is assigned target slot ⌊i·m/k⌋ of the m
// open slots — an even split of the robot supply over the frontier in DFS
// order — and every robot moves one edge along the tree path towards the
// node holding its slot, traversing the slot's dangling edge on arrival.
// With k = 1 the single robot always chases the DFS-first open edge and the
// walk degenerates to an exact depth-first traversal (2(n−1) moves), which
// is where the 2n/k term is tight; the D² term pays for re-walking at most
// D edges each time a subtree is exhausted. Once no open edge remains the
// robots climb back to the root, so the run terminates with every robot
// home.
//
// Bound is the reproduction's explicit-constant instantiation of the
// paper's 2n/k + O(D²) guarantee; the cross-algorithm invariant suite
// checks every measured run stays inside it.
package potential

import (
	"fmt"
	"math/rand"

	"bfdn/internal/sim"
	"bfdn/internal/snap"
	"bfdn/internal/tree"
)

// Potential is the algorithm state. It implements sim.Algorithm.
type Potential struct {
	k int
	// open counts the open (unexplored) edges in each explored subtree T(v).
	open  sim.OpenLedger
	moves []sim.Move

	// stack is the DFS slot resolver's descent path, rebuilt once per round
	// and advanced monotonically through the round's slots; stack[d] is the
	// path node at relative depth d, so it doubles as the ancestor table
	// stepTowards needs to route every robot in O(1).
	stack []slotFrame
	// liveFrom[v] is the index of v's first explored child whose subtree may
	// still hold open edges. Open counts are monotone non-increasing — a
	// subtree with no open edge can never regain one, since discoveries only
	// happen through open edges inside the subtree — so the cursor only
	// advances, and the resolver's child scans skip the permanently closed
	// prefix instead of re-walking it every round. A pure accelerator: it is
	// not serialized (a restored run just rebuilds it lazily) and never
	// changes which node a slot resolves to. It is grown each round to
	// cover every node the ledger counts.
	liveFrom []int32
}

// slotFrame is one level of the slot resolver's descent path: the node, the
// preorder index of the first open slot in its subtree, and the resume
// cursor over its explored children (index of the next child to inspect and
// the slot base of that child).
type slotFrame struct {
	node      tree.NodeID
	base      int32
	childIdx  int32
	childBase int32
}

var _ sim.Algorithm = (*Potential)(nil)

// New returns a Potential-Function instance for k robots.
func New(k int) *Potential {
	return &Potential{
		k:     k,
		moves: make([]sim.Move, k),
	}
}

// Bound evaluates the reproduction's explicit-constant instantiation of the
// paper's 2n/k + O(D²) guarantee:
//
//	2n/k + 3D² + 2D + 2
//
// The paper states the D² coefficient asymptotically; the constants here
// are chosen conservatively so that every measured run of this
// implementation sits inside the envelope (asserted by the invariant suite
// and experiment E15).
func Bound(n, depth, k int) float64 {
	d := float64(depth)
	return 2*float64(n)/float64(k) + 3*d*d + 2*d + 2
}

// Reset re-initializes p to the start state of a fresh New(k) while keeping
// every scratch buffer; a run on a Reset instance is byte-identical to a run
// on a fresh one (the sweep engine's algorithm-reuse contract).
func (p *Potential) Reset(k int) {
	p.k = k
	if cap(p.moves) >= k {
		p.moves = p.moves[:k]
	} else {
		p.moves = make([]sim.Move, k)
	}
	for i := range p.moves {
		p.moves[i] = sim.Move{}
	}
	p.open.Reset()
	p.liveFrom = p.liveFrom[:0]
	p.stack = p.stack[:0]
}

// SelectMoves implements sim.Algorithm.
func (p *Potential) SelectMoves(v *sim.View, events []sim.ExploreEvent) ([]sim.Move, error) {
	p.open.Update(v, events)
	for len(p.liveFrom) < len(p.open.Counts()) {
		p.liveFrom = append(p.liveFrom, 0)
	}

	m := int(p.open.Open(tree.Root))
	if m == 0 {
		// Exploration done: climb home, stay at the root. A full round of
		// stays ends the run.
		for i := 0; i < p.k; i++ {
			if v.Pos(i) == tree.Root {
				p.moves[i] = sim.Move{Kind: sim.Stay}
			} else {
				p.moves[i] = sim.Move{Kind: sim.Up}
			}
		}
		return p.moves, nil
	}

	// Even split of robots over the m open slots in DFS order. Slots are
	// nondecreasing in the robot index, so one DFS descent per round resolves
	// them all: the resolver's path stack advances monotonically through the
	// preorder (never re-walking from the root), and consecutive robots
	// sharing a slot also share one reservation ticket (legal co-traversal:
	// only the first arrival triggers the explore event).
	p.stack = append(p.stack[:0], slotFrame{node: tree.Root})
	lastSlot := -1
	var u tree.NodeID
	var lastTicket sim.Ticket
	haveTicket := false
	for i := 0; i < p.k; i++ {
		slot := i * m / p.k
		if slot != lastSlot {
			var err error
			u, err = p.advance(v, slot)
			if err != nil {
				return nil, err
			}
			lastSlot, haveTicket = slot, false
		}
		pos := v.Pos(i)
		if pos == u {
			if !haveTicket {
				tk, ok := v.ReserveDangling(u)
				if !ok {
					return nil, fmt.Errorf("potential: node %d: reservation failed for slot %d of %d", u, slot, m)
				}
				lastTicket, haveTicket = tk, true
			}
			p.moves[i] = sim.Move{Kind: sim.Explore, Ticket: lastTicket}
			continue
		}
		p.moves[i] = p.stepTowards(v, pos)
	}
	return p.moves, nil
}

// advance moves the resolver's descent path to open-edge slot s (0 ≤ s <
// open(root)) in the DFS preorder of the partially explored tree and
// returns the explored node holding that dangling edge. Port order puts a
// node's explored children before its own dangling edges, so the preorder
// at v is: the open edges of each explored child subtree in discovery
// order, then v's dangling edges.
//
// Slots of a round are requested in nondecreasing order, so the descent
// resumes where the previous slot left off: climb to the deepest path node
// whose subtree still contains s, then continue that node's child scan from
// its cursor. Across a whole round every path edge and every explored child
// is inspected at most once — one DFS pass, where the per-slot root walk it
// replaces cost O(D·branching) each.
func (p *Potential) advance(v *sim.View, s int) (tree.NodeID, error) {
	s32 := int32(s)
	// Every node inspected below is explored, and every explored node has a
	// ledger entry and a liveFrom entry, so both are read by direct index.
	vals := p.open.Counts()
	// Climb: pop exhausted subtrees (root is never popped; s < open(root)).
	for len(p.stack) > 1 {
		f := &p.stack[len(p.stack)-1]
		if s32 < f.base+vals[f.node] {
			break
		}
		p.stack = p.stack[:len(p.stack)-1]
	}
	// Descend to the node holding slot s.
	for {
		f := &p.stack[len(p.stack)-1]
		children := v.ExploredChildren(f.node)
		lf := p.liveFrom[f.node]
		if f.childIdx < lf {
			// Children below the live cursor are permanently closed; they
			// contribute nothing to childBase, so the jump is free.
			f.childIdx = lf
		}
		// While the scan sits at the live cursor, every closed child it steps
		// over joins the permanently closed prefix.
		atLive := f.childIdx == lf
		descended := false
		for int(f.childIdx) < len(children) {
			ch := children[f.childIdx]
			w := vals[ch]
			if w == 0 {
				if atLive {
					lf++
				}
				f.childIdx++
				continue
			}
			atLive = false
			if s32 < f.childBase+w {
				p.stack = append(p.stack, slotFrame{node: ch, base: f.childBase, childBase: f.childBase})
				descended = true
				break
			}
			f.childBase += w
			f.childIdx++
		}
		p.liveFrom[f.node] = lf
		if descended {
			continue
		}
		// All child subtrees precede s: the slot is one of f.node's own
		// dangling edges.
		if int(s32-f.childBase) >= v.DanglingAt(f.node) {
			return tree.Nil, fmt.Errorf("potential: slot overflow at node %d: %d ≥ %d", f.node, s32-f.childBase, v.DanglingAt(f.node))
		}
		return f.node, nil
	}
}

// stepTowards returns the one-edge move from pos towards the resolver's
// current target (the top of the descent path), which is ≠ pos: down into
// the child of pos that is an ancestor of the target when the target lies
// below pos, up otherwise. The descent path doubles as the ancestor table —
// stack[d] is the target's ancestor at relative depth d — so the routing is
// O(1) where the ancestor walk it replaces cost O(D).
func (p *Potential) stepTowards(v *sim.View, pos tree.NodeID) sim.Move {
	dp := v.DepthOf(pos)
	if dp >= len(p.stack)-1 {
		// The target is at pos's depth or above (and is not pos): climb.
		return sim.Move{Kind: sim.Up}
	}
	if p.stack[dp].node == pos {
		return sim.Move{Kind: sim.Down, Child: p.stack[dp+1].node}
	}
	return sim.Move{Kind: sim.Up}
}

// SnapshotState implements sim.Snapshotter (DESIGN.md S30). The Potential
// Function Method is memoryless beyond its open-edge ledger (the potential
// of arXiv:2311.01354 is a function of those counts alone), which
// RestoreState rebuilds from the restored world, so the checkpoint is
// empty; the move buffer is rewritten every round and the resolver's stack
// and liveFrom cursor are rebuilt.
func (p *Potential) SnapshotState(*snap.Encoder) {}

// RestoreState implements sim.Snapshotter.
func (p *Potential) RestoreState(_ *snap.Decoder, v *sim.View, pending []sim.ExploreEvent) error {
	p.open.Rebuild(v, pending)
	return nil
}

// Recycle is the factory-reset hook for the sweep engine's algorithm-reuse
// path (sweep.Point.ResetAlgorithm): it resets and returns the worker's
// previous instance when it is a Potential, and returns nil (fresh
// construction) otherwise. The method takes no configuration, so any
// instance is recyclable.
func Recycle(prev sim.Algorithm, k int, _ *rand.Rand) sim.Algorithm {
	if p, ok := prev.(*Potential); ok {
		p.Reset(k)
		return p
	}
	return nil
}
