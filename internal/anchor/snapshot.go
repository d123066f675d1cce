package anchor

import (
	"fmt"

	"bfdn/internal/snap"
	"bfdn/internal/tree"
)

// Snapshot serializes the index verbatim: the depth cursor, the per-node
// meta table as (position, load) pairs, then per depth the bucket member
// order, the lazy heap's backing array (stale entries included) and the
// round-robin cursor. The heap is written in array order because its sift
// history is what breaks load ties; replaying it byte-for-byte is what
// keeps a resumed run byte-identical to an uninterrupted one.
func (a *Index) Snapshot(e *snap.Encoder) {
	e.Int(a.minDepth)
	e.Int(len(a.meta.vals))
	for _, m := range a.meta.vals {
		e.Int32(m.pos)
		e.Int32(m.load)
	}
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

// Restore rebuilds the index from a Snapshot, reusing bucket structures.
// The bytes are untrusted, so beyond their framing it checks that the
// index can be resumed from: the depth cursor lies in [0, buckets]; every
// member's position entry points back at its slot, no node is a member
// twice and no other node is positioned; every member has a live heap
// entry and no heap entry names a negative node; and every round-robin
// cursor lies in [0, members]. The index does not know the tree, so the
// caller checks the rest against it (core's RestoreState does, on the
// restored world): that each member is an explored node at its bucket's
// depth, inside the caller's subtree.
func (a *Index) Restore(d *snap.Decoder) error {
	a.minDepth = d.Int()
	n := d.SliceLen()
	if err := d.Err(); err != nil {
		return fmt.Errorf("anchor: corrupt index meta table: %w", err)
	}
	a.meta.vals = a.meta.vals[:0]
	positioned := 0
	for i := 0; i < n; i++ {
		m := nodeMeta{pos: d.Int32(), load: d.Int32()}
		if m.pos >= 0 {
			positioned++
		}
		a.meta.vals = append(a.meta.vals, m)
	}
	nb := d.SliceLen()
	if err := d.Err(); err != nil {
		return fmt.Errorf("anchor: corrupt index bucket count: %w", err)
	}
	if a.minDepth < 0 || a.minDepth > nb {
		return fmt.Errorf("anchor: depth cursor %d outside [0, %d]: %w", a.minDepth, nb, snap.ErrCorrupt)
	}
	// live marks, per node, that its slot has been seen (1) and that a live
	// heap entry for it has been seen in its own bucket (2).
	live := make([]uint8, n)
	members := 0
	a.buckets = a.buckets[:0]
	for depth := 0; depth < nb; depth++ {
		b := a.bucket(depth)
		nm := d.SliceLen()
		if err := d.Err(); err != nil {
			return fmt.Errorf("anchor: corrupt index bucket: %w", err)
		}
		for i := 0; i < nm; i++ {
			v := tree.NodeID(d.Int32())
			if err := d.Err(); err != nil {
				return err
			}
			if uint(v) >= uint(n) || a.meta.vals[v].pos != int32(i) || live[v] != 0 {
				return fmt.Errorf("anchor: depth %d slot %d holds node %d, whose position entry does not point back at it: %w", depth, i, v, snap.ErrCorrupt)
			}
			live[v] = 1
			b.members = append(b.members, v)
		}
		members += nm
		nh := d.SliceLen()
		if err := d.Err(); err != nil {
			return fmt.Errorf("anchor: corrupt index heap: %w", err)
		}
		for i := 0; i < nh; i++ {
			le := loadEntry{node: tree.NodeID(d.Int32()), load: d.Int32()}
			if err := d.Err(); err != nil {
				return err
			}
			if le.node < 0 {
				return fmt.Errorf("anchor: depth %d heap entry names node %d: %w", depth, le.node, snap.ErrCorrupt)
			}
			if m := a.meta.at(le.node); m.pos >= 0 && int(m.pos) < len(b.members) && b.members[m.pos] == le.node && le.load == int32(a.sign)*m.load {
				live[le.node] = 2
			}
			b.heap = append(b.heap, le)
		}
		for _, v := range b.members {
			if live[v] != 2 {
				return fmt.Errorf("anchor: open node %d at depth %d has no live heap entry: %w", v, depth, snap.ErrCorrupt)
			}
		}
		b.cursor = d.Int()
		if b.cursor < 0 || b.cursor > len(b.members) {
			return fmt.Errorf("anchor: depth %d round-robin cursor %d outside [0, %d]: %w", depth, b.cursor, len(b.members), snap.ErrCorrupt)
		}
	}
	if err := d.Err(); err != nil {
		return err
	}
	if positioned > members {
		return fmt.Errorf("anchor: %d nodes have a bucket position but the buckets hold %d: %w", positioned, members, snap.ErrCorrupt)
	}
	return nil
}
