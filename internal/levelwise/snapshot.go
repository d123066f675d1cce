package levelwise

import (
	"fmt"

	"bfdn/internal/sim"
	"bfdn/internal/snap"
	"bfdn/internal/tree"
)

// SnapshotState implements sim.Snapshotter (DESIGN.md S30). The open-node
// bookkeeping is serialized in openList order — the order lazy cleanup and
// the phase sort observe — and openCount rides along as a parallel array,
// so the restored instance compacts and sorts exactly the slice the
// original would have. Per-robot phase plans (remaining descent path, the
// node to explore, the trip home) are stored verbatim; inList is derivable
// (it is the openList membership set) and rebuilt on restore.
func (l *Levelwise) SnapshotState(e *snap.Encoder) {
	e.Int(l.k)
	e.Bool(l.seeded)
	e.Int(l.Phases)
	e.Int(len(l.openList))
	for _, node := range l.openList {
		e.Int32(int32(node))
		e.Int(l.openCount[node])
	}
	for i := range l.plans {
		p := &l.plans[i]
		e.Int(len(p.down))
		for _, u := range p.down {
			e.Int32(int32(u))
		}
		e.Int32(int32(p.explore))
		e.Int(p.up)
	}
}

// RestoreState implements sim.Snapshotter; l must have been constructed for
// the snapshot's robot count. The decoded state is checked against the
// restored world v (checkAgainstTree); the pending events need no
// treatment, since the next SelectMoves folds them into the open counts.
func (l *Levelwise) RestoreState(d *snap.Decoder, v *sim.View, _ []sim.ExploreEvent) error {
	k := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if k != l.k {
		return fmt.Errorf("levelwise: snapshot is for k=%d, instance has k=%d", k, l.k)
	}
	l.seeded = d.Bool()
	l.Phases = d.Int()
	n := d.SliceLen()
	if err := d.Err(); err != nil {
		return fmt.Errorf("levelwise: corrupt open-list length: %w", err)
	}
	l.openList = l.openList[:0]
	l.openCount = make(map[tree.NodeID]int, n)
	l.inList = make(map[tree.NodeID]bool, n)
	for i := 0; i < n; i++ {
		node := tree.NodeID(d.Int32())
		count := d.Int()
		if d.Err() != nil {
			return d.Err()
		}
		l.openList = append(l.openList, node)
		l.inList[node] = true
		if count > 0 {
			l.openCount[node] = count
		}
	}
	for i := range l.plans {
		p := &l.plans[i]
		m := d.SliceLen()
		if err := d.Err(); err != nil {
			return fmt.Errorf("levelwise: corrupt plan for robot %d: %w", i, err)
		}
		p.down = p.down[:0]
		for j := 0; j < m; j++ {
			p.down = append(p.down, tree.NodeID(d.Int32()))
		}
		p.explore = tree.NodeID(d.Int32())
		p.up = d.Int()
	}
	if err := d.Err(); err != nil {
		return err
	}
	return l.checkAgainstTree(v)
}

// checkAgainstTree checks a restored state against the tree: every
// open-list node, every node on a plan's descent and every node a plan
// explores from must be explored.
func (l *Levelwise) checkAgainstTree(v *sim.View) error {
	for _, u := range l.openList {
		if !v.Explored(u) {
			return fmt.Errorf("levelwise: open-list node %d is not explored: %w", u, snap.ErrCorrupt)
		}
	}
	for i := range l.plans {
		p := &l.plans[i]
		if p.explore != tree.Nil && !v.Explored(p.explore) {
			return fmt.Errorf("levelwise: robot %d plans to explore from node %d, which is not explored: %w", i, p.explore, snap.ErrCorrupt)
		}
		for _, u := range p.down {
			if !v.Explored(u) {
				return fmt.Errorf("levelwise: robot %d plans to walk through node %d, which is not explored: %w", i, u, snap.ErrCorrupt)
			}
		}
	}
	return nil
}
