// Package levelwise implements the phase-synchronized exploration algorithm
// the paper's "Open directions" section points at (Ortolf–Schindelhauer
// [13]): "a simple algorithm explores any tree in O(D²) rounds as soon as
// k ≥ n/D". Together with the Ω(D²) lower bound for k = n of Disser et al.
// [6], it brackets the best-possible additive overhead and is the natural
// comparison point for BFDN's 2n/k + O(D² log k) (experiment E12).
//
// The algorithm works in phases. At the start of a phase all robots stand at
// the root and the algorithm knows the current dangling edges. It assigns up
// to k of them (shallowest first, one robot each); every robot walks down to
// its edge, crosses it, and walks straight back; the phase ends when all
// robots are home. Edges discovered mid-phase wait for the next phase.
//
// Each phase lasts at most 2(D+1) rounds. A phase that clears every known
// dangling edge strictly increases the minimum dangling depth, so there are
// at most D such phases; every other phase explores exactly k edges, so
// there are at most ⌈(n−1)/k⌉ of those. Hence
//
//	T ≤ 2(D+1)·(D + ⌈(n−1)/k⌉)
//
// which is O(D²) whenever k ≥ n/D.
package levelwise

import (
	"fmt"
	"sort"

	"bfdn/internal/sim"
	"bfdn/internal/tree"
)

// Levelwise implements sim.Algorithm.
type Levelwise struct {
	k int

	// openCount[v] tracks dangling edges at v; openList holds candidate open
	// nodes with lazy cleanup at phase boundaries.
	openCount map[tree.NodeID]int
	openList  []tree.NodeID
	inList    map[tree.NodeID]bool

	plans  []plan
	moves  []sim.Move
	seeded bool
	// Phases counts completed assignment phases (for tests).
	Phases int
}

type plan struct {
	// down holds the path to the target's parent node, popped from the end.
	down []tree.NodeID
	// explore is the node at which to reserve a dangling edge (Nil if done).
	explore tree.NodeID
	// up counts the remaining upward moves after exploring.
	up int
}

var _ sim.Algorithm = (*Levelwise)(nil)

// New returns a level-wise explorer for k robots.
func New(k int) *Levelwise {
	l := &Levelwise{
		k:         k,
		openCount: make(map[tree.NodeID]int),
		inList:    make(map[tree.NodeID]bool),
		plans:     make([]plan, k),
		moves:     make([]sim.Move, k),
	}
	for i := range l.plans {
		l.plans[i].explore = tree.Nil
	}
	return l
}

// Bound evaluates the runtime guarantee 2(D+1)·(D + ⌈(n−1)/k⌉).
func Bound(n, depth, k int) float64 {
	phases := float64(depth) + float64((n-2+k)/k)
	return 2 * float64(depth+1) * phases
}

func (l *Levelwise) addOpen(v tree.NodeID, count int) {
	if count <= 0 {
		return
	}
	l.openCount[v] = count
	if !l.inList[v] {
		l.inList[v] = true
		l.openList = append(l.openList, v)
	}
}

// SelectMoves implements sim.Algorithm.
func (l *Levelwise) SelectMoves(v *sim.View, events []sim.ExploreEvent) ([]sim.Move, error) {
	if !l.seeded {
		l.seeded = true
		l.addOpen(tree.Root, v.DanglingAt(tree.Root))
	}
	for _, e := range events {
		if c := l.openCount[e.Parent] - 1; c > 0 {
			l.openCount[e.Parent] = c
		} else {
			delete(l.openCount, e.Parent)
		}
		l.addOpen(e.Child, e.NewDangling)
	}
	if l.phaseDone(v) {
		l.startPhase(v)
	}
	for i := 0; i < l.k; i++ {
		m, err := l.step(v, i)
		if err != nil {
			return nil, err
		}
		l.moves[i] = m
	}
	return l.moves, nil
}

func (l *Levelwise) phaseDone(v *sim.View) bool {
	for i := 0; i < l.k; i++ {
		p := &l.plans[i]
		if len(p.down) > 0 || p.explore != tree.Nil || p.up > 0 || v.Pos(i) != tree.Root {
			return false
		}
	}
	return true
}

// startPhase assigns up to k dangling-edge slots, shallowest parents first.
func (l *Levelwise) startPhase(v *sim.View) {
	// Compact the open list (drop closed entries) and sort by depth.
	live := l.openList[:0]
	for _, node := range l.openList {
		if l.openCount[node] > 0 {
			live = append(live, node)
		} else {
			delete(l.inList, node)
		}
	}
	l.openList = live
	if len(l.openList) == 0 {
		return
	}
	sort.Slice(l.openList, func(i, j int) bool {
		di, dj := v.DepthOf(l.openList[i]), v.DepthOf(l.openList[j])
		if di != dj {
			return di < dj
		}
		return l.openList[i] < l.openList[j]
	})
	robot := 0
	for _, node := range l.openList {
		for slot := 0; slot < l.openCount[node] && robot < l.k; slot++ {
			p := &l.plans[robot]
			p.explore = node
			p.up = v.DepthOf(node) + 1
			p.down = p.down[:0]
			for u := node; u != tree.Root; u = v.Parent(u) {
				p.down = append(p.down, u)
			}
			robot++
		}
		if robot == l.k {
			break
		}
	}
	l.Phases++
}

func (l *Levelwise) step(v *sim.View, i int) (sim.Move, error) {
	p := &l.plans[i]
	switch {
	case len(p.down) > 0:
		next := p.down[len(p.down)-1]
		p.down = p.down[:len(p.down)-1]
		if v.Parent(next) != v.Pos(i) {
			return sim.Move{}, fmt.Errorf("levelwise: robot %d: bad path node %d from %d", i, next, v.Pos(i))
		}
		return sim.Move{Kind: sim.Down, Child: next}, nil
	case p.explore != tree.Nil:
		node := p.explore
		p.explore = tree.Nil
		tk, ok := v.ReserveDangling(node)
		if !ok {
			// The slot disappeared (phase accounting bug) — recover by
			// heading home; correctness is preserved, the edge stays for a
			// later phase.
			if v.DepthOf(node) == 0 {
				p.up = 0
				return sim.Move{Kind: sim.Stay}, nil
			}
			p.up = v.DepthOf(node) - 1
			return sim.Move{Kind: sim.Up}, nil
		}
		// The robot descends one level through the dangling edge; p.up was
		// set to depth+1 at assignment, exactly the trip home from there.
		return sim.Move{Kind: sim.Explore, Ticket: tk}, nil
	case p.up > 0:
		p.up--
		return sim.Move{Kind: sim.Up}, nil
	default:
		return sim.Move{Kind: sim.Stay}, nil
	}
}
