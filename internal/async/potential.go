package async

import "bfdn/internal/tree"

// Potential ports the Potential Function Method's DFS-slot strategy
// (arXiv:2311.01354, reproduced synchronously in internal/potential) onto
// arrival-instant decisions: the m unclaimed dangling edges are enumerated
// in DFS preorder of the explored tree, robot i chases slot ⌊i·m/k⌋, and on
// reaching the node holding its slot it claims the edge. Claims are
// persistent here exactly as in asynchronous BFDN — an edge leaves the slot
// enumeration the instant it is claimed, not when its endpoint is
// discovered — so the even split is over work nobody has committed to yet.
// With nothing unclaimed the robots climb home and park.
type Potential struct {
	k int
	// slots holds the unclaimed dangling edges in slot order: a discovery
	// inserts the node with its dangling edges, a claim takes one off.
	slots slotIndex
}

var _ Algorithm = (*Potential)(nil)

// NewPotential returns an asynchronous DFS-slot strategy; Reset sizes it to
// a fleet.
func NewPotential() *Potential { return &Potential{} }

func (p *Potential) String() string { return "potential" }

// Reset implements Algorithm.
func (p *Potential) Reset(k int) {
	p.k = k
	p.slots.reset()
}

// OnExplored implements Algorithm: the discovered child's block goes right
// after its nearest explored left sibling's, or first in its parent's, with
// all of its dangling edges open. The edge that led to child was already
// taken off at claim time.
func (p *Potential) OnExplored(v View, parent, child tree.NodeID, _ bool) {
	after := int32(noMarker)
	if parent != tree.Nil {
		after = enterMarker(parent)
		if s := v.PrevExploredSibling(child); s != tree.Nil {
			after = exitMarker(s)
		}
	}
	p.slots.explore(child, after, v.Unclaimed(child))
}

// Decide implements Algorithm: find slot ⌊i·m/k⌋, claim on arrival,
// otherwise take one edge towards it; with m = 0 climb home.
func (p *Potential) Decide(v View, i int) (Move, error) {
	pos := v.Pos(i)
	m := int(p.slots.total)
	if m == 0 {
		if pos == tree.Root {
			return Move{Kind: Park}, nil
		}
		return Move{Kind: MoveTo, To: v.Parent(pos)}, nil
	}
	u := p.slots.find(i * m / p.k)
	if pos == u {
		p.slots.takeFound()
		return Move{Kind: Claim}, nil
	}
	return stepTowards(v, pos, u), nil
}

// stepTowards returns the one-edge move from pos towards target u ≠ pos:
// down into the child of pos that is an ancestor of u when u lies below
// pos, up otherwise.
func stepTowards(v View, pos, u tree.NodeID) Move {
	dp := v.DepthOf(pos)
	if v.DepthOf(u) <= dp {
		return Move{Kind: MoveTo, To: v.Parent(pos)}
	}
	c := u
	for v.DepthOf(c) > dp+1 {
		c = v.Parent(c)
	}
	if v.Parent(c) == pos {
		return Move{Kind: MoveTo, To: c}
	}
	return Move{Kind: MoveTo, To: v.Parent(pos)}
}
