package core

import (
	"fmt"

	"bfdn/internal/sim"
	"bfdn/internal/snap"
	"bfdn/internal/tree"
)

// SnapshotState implements sim.Snapshotter (DESIGN.md S30) for the
// whole-tree Algorithm adapter. Configuration (policy, anchor-depth limit,
// flags) is not serialized: a checkpoint must be restored into an instance
// constructed with the same options, mirroring the Reset/Recycle contract.
// The RandomOpen policy cannot be checkpointed (its rand.Rand stream is not
// serializable); RestoreState rejects it.
func (a *Algorithm) SnapshotState(e *snap.Encoder) { a.b.SnapshotState(e) }

// RestoreState implements sim.Snapshotter.
func (a *Algorithm) RestoreState(d *snap.Decoder, v *sim.View, pending []sim.ExploreEvent) error {
	return a.b.RestoreState(d, v, pending)
}

// SnapshotState serializes the instance's cross-round state: robot set,
// root, per-robot excursion state, statistics, and the anchor index
// verbatim. The index's lazy heaps are written in array order — their
// sift history is what breaks load ties, so the heap is never rebuilt on
// restore; replaying it byte-for-byte is what keeps a resumed run
// byte-identical to an uninterrupted one.
func (b *BFDN) SnapshotState(e *snap.Encoder) {
	e.Ints(b.robots)
	e.Int32(int32(b.root))
	e.Int(b.rootDepth)
	e.Bool(b.seeded)
	for j := range b.rs {
		st := &b.rs[j]
		e.Int32(int32(st.anchor))
		e.Int(st.anchorDepth)
		e.Int(len(st.stack))
		for _, u := range st.stack {
			e.Int32(int32(u))
		}
		e.Int(st.excRounds)
		e.Int(st.excExplored)
		e.Bool(st.everMoved)
	}
	e.Ints(b.stats.ReanchorsPerDepth)
	e.Int(len(b.stats.Excursions))
	for _, x := range b.stats.Excursions {
		e.Int(x.Robot)
		e.Int(x.Depth)
		e.Int(x.Rounds)
		e.Int(x.Explored)
	}
	e.Int(b.stats.IdleSelections)
	b.idx.Snapshot(e)
}

// RestoreState restores a checkpoint written by SnapshotState into b, which
// must have been constructed (or Reset) with the same configuration and
// robot count, and checks it against the restored world (checkAgainstTree).
// Buffers are reused where capacity allows.
func (b *BFDN) RestoreState(d *snap.Decoder, v *sim.View, _ []sim.ExploreEvent) error {
	if b.policy == RandomOpen {
		return fmt.Errorf("core: the RandomOpen policy cannot be restored from a checkpoint")
	}
	robots := d.Ints()
	if err := d.Err(); err != nil {
		return err
	}
	if len(robots) != len(b.rs) {
		return fmt.Errorf("core: snapshot has %d robots, instance has %d", len(robots), len(b.rs))
	}
	for _, r := range robots {
		if r < 0 || !b.isMine.has(r) {
			return fmt.Errorf("core: snapshot robot %d is not in the instance's team", r)
		}
	}
	b.robots = append(b.robots[:0], robots...)
	b.isMine.setBits(b.robots)
	b.root = tree.NodeID(d.Int32())
	b.rootDepth = d.Int()
	b.seeded = d.Bool()
	for j := range b.rs {
		st := &b.rs[j]
		st.anchor = tree.NodeID(d.Int32())
		st.anchorDepth = d.Int()
		n := d.SliceLen()
		if err := d.Err(); err != nil {
			return fmt.Errorf("core: corrupt BF stack for robot slot %d: %w", j, err)
		}
		st.stack = st.stack[:0]
		for i := 0; i < n; i++ {
			st.stack = append(st.stack, tree.NodeID(d.Int32()))
		}
		st.excRounds = d.Int()
		st.excExplored = d.Int()
		st.everMoved = d.Bool()
	}
	b.stats.ReanchorsPerDepth = append(b.stats.ReanchorsPerDepth[:0], d.Ints()...)
	nx := d.SliceLen()
	if err := d.Err(); err != nil {
		return fmt.Errorf("core: corrupt excursion log length: %w", err)
	}
	b.stats.Excursions = b.stats.Excursions[:0]
	for i := 0; i < nx; i++ {
		b.stats.Excursions = append(b.stats.Excursions, Excursion{
			Robot:    d.Int(),
			Depth:    d.Int(),
			Rounds:   d.Int(),
			Explored: d.Int(),
		})
	}
	b.stats.IdleSelections = d.Int()
	if err := b.idx.Restore(d); err != nil {
		return err
	}
	b.setPosDepths(v)
	return b.checkAgainstTree(v)
}

// checkAgainstTree checks a restored state against the tree: the instance
// root, every robot's anchor and every open node of the anchor index must
// be explored nodes of the instance's subtree at the (relative) depth the
// state gives them. Index updates trust those depths, and re-anchoring
// walks parents up to the instance root, so a checkpoint that gets one
// wrong would otherwise index out of range later in the run.
func (b *BFDN) checkAgainstTree(v *sim.View) error {
	if !b.seeded {
		// seed rebuilds the anchors and the index from the tree.
		if !v.Explored(b.root) || b.idx.Depths() != 0 {
			return fmt.Errorf("core: unseeded instance at %d is not an explored node with an empty index: %w", b.root, snap.ErrCorrupt)
		}
		return nil
	}
	// in reports whether u is an explored node at relative depth d whose
	// d-th ancestor is the instance root.
	in := func(u tree.NodeID, d int) bool {
		if !v.Explored(u) || v.DepthOf(u)-b.rootDepth != d {
			return false
		}
		if b.root == tree.Root {
			return true
		}
		for ; d > 0; d-- {
			u = v.Parent(u)
		}
		return u == b.root
	}
	if !in(b.root, 0) {
		return fmt.Errorf("core: instance root %d is not an explored node at depth %d: %w", b.root, b.rootDepth, snap.ErrCorrupt)
	}
	for j := range b.rs {
		if st := &b.rs[j]; !in(st.anchor, st.anchorDepth) {
			return fmt.Errorf("core: robot slot %d is anchored at %d, not an explored node of the instance subtree at relative depth %d: %w", j, st.anchor, st.anchorDepth, snap.ErrCorrupt)
		}
	}
	for d := 0; d < b.idx.Depths(); d++ {
		for _, u := range b.idx.Members(d) {
			if !in(u, d) {
				return fmt.Errorf("core: open node %d is not an explored node of the instance subtree at relative depth %d: %w", u, d, snap.ErrCorrupt)
			}
		}
	}
	return nil
}
