package core

import (
	"fmt"

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
func (a *Algorithm) RestoreState(d *snap.Decoder) error { return a.b.RestoreState(d) }

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
	b.idx.snapshot(e)
}

// RestoreState restores a checkpoint written by SnapshotState into b, which
// must have been constructed (or Reset) with the same configuration and
// robot count. Buffers are reused where capacity allows.
func (b *BFDN) RestoreState(d *snap.Decoder) error {
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
	b.depthsKnown = false
	if err := b.idx.restore(d); err != nil {
		return err
	}
	return d.Err()
}

// snapshot serializes the index verbatim: per-depth bucket member order,
// the lazy heap's backing array (stale entries included), the round-robin
// cursor, the depth cursor, and the load/position tables. The merged meta
// table is written as its two legacy column arrays (loads, then positions)
// so the wire layout predates the merge; both columns share the merged
// table's length.
func (a *anchorIndex) snapshot(e *snap.Encoder) {
	e.Int(a.minDepth)
	loads := make([]int32, len(a.meta.vals))
	pos := make([]int32, len(a.meta.vals))
	for i, m := range a.meta.vals {
		loads[i] = m.load
		pos[i] = m.pos
	}
	e.Int32s(loads)
	e.Int32s(pos)
	e.Int(len(a.buckets))
	for _, b := range a.buckets {
		e.Int(len(b.members))
		for _, v := range b.members {
			e.Int32(int32(v))
		}
		e.Int(len(b.heap))
		for _, le := range b.heap {
			e.Int32(int32(le.node))
			e.Int32(le.load)
		}
		e.Int(b.cursor)
	}
}

// restore rebuilds the index from a snapshot, reusing bucket structures.
func (a *anchorIndex) restore(d *snap.Decoder) error {
	a.minDepth = d.Int()
	loads := d.Int32s()
	pos := d.Int32s()
	// The two columns share a length when written by this version; accept
	// differing lengths (pre-merge snapshots grew them independently) by
	// filling the shorter column with its default.
	n := len(loads)
	if len(pos) > n {
		n = len(pos)
	}
	a.meta.vals = a.meta.vals[:0]
	for i := 0; i < n; i++ {
		m := nodeMeta{pos: -1}
		if i < len(loads) {
			m.load = loads[i]
		}
		if i < len(pos) {
			m.pos = pos[i]
		}
		a.meta.vals = append(a.meta.vals, m)
	}
	nb := d.SliceLen()
	if err := d.Err(); err != nil {
		return fmt.Errorf("core: corrupt anchor index bucket count: %w", err)
	}
	for len(a.buckets) < nb {
		a.buckets = append(a.buckets, &depthBucket{})
	}
	a.buckets = a.buckets[:nb]
	for _, b := range a.buckets {
		nm := d.SliceLen()
		if err := d.Err(); err != nil {
			return fmt.Errorf("core: corrupt anchor index bucket: %w", err)
		}
		b.members = b.members[:0]
		for i := 0; i < nm; i++ {
			b.members = append(b.members, tree.NodeID(d.Int32()))
		}
		nh := d.SliceLen()
		if err := d.Err(); err != nil {
			return fmt.Errorf("core: corrupt anchor index heap: %w", err)
		}
		b.heap = b.heap[:0]
		for i := 0; i < nh; i++ {
			node := tree.NodeID(d.Int32())
			b.heap = append(b.heap, loadEntry{node: node, load: d.Int32()})
		}
		b.cursor = d.Int()
	}
	return d.Err()
}
