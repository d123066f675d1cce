package recursive

import (
	"fmt"

	"bfdn/internal/core"
	"bfdn/internal/sim"
	"bfdn/internal/snap"
	"bfdn/internal/tree"
)

// Type tags for the recursive Anchored encoding: the instance tree of a
// BFDN_ℓ phase mixes depth-limited core instances (leaves) with divide-depth
// functor nodes, so each serialized child carries its concrete type.
const (
	tagBFDN1  byte = 1
	tagDivide byte = 2
)

// SnapshotState implements sim.Snapshotter (DESIGN.md S30). The whole phase
// instance tree is serialized: each divide-depth node stores its runtime
// team assignment, iteration/phase cursors and travel plans, and each leaf
// stores its depth-limited core.BFDN state (anchor index verbatim), so a
// restored BFDN_ℓ run is byte-identical to an uninterrupted one.
func (b *BFDNL) SnapshotState(e *snap.Encoder) {
	e.Int(b.k)
	e.Int(b.ell)
	e.Int(b.phaseJ)
	e.Bool(b.ranOnce)
	e.Bool(b.homing)
	encodeAnchored(e, b.top)
}

// RestoreState implements sim.Snapshotter; b must have been constructed for
// the snapshot's k and ℓ. Every leaf's core instance is checked against the
// restored world v as it is decoded, its anchors and open nodes included:
// they must lie in that leaf's subtree.
func (b *BFDNL) RestoreState(d *snap.Decoder, v *sim.View, pending []sim.ExploreEvent) error {
	k := d.Int()
	ell := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if k != b.k || ell != b.ell {
		return fmt.Errorf("recursive: snapshot is for (k=%d, ℓ=%d), instance has (k=%d, ℓ=%d)", k, ell, b.k, b.ell)
	}
	b.phaseJ = d.Int()
	b.ranOnce = d.Bool()
	b.homing = d.Bool()
	if b.phaseJ < 0 || b.phaseJ > 62 {
		return fmt.Errorf("recursive: corrupt phase index %d", b.phaseJ)
	}
	top, err := decodeAnchored(d, v, pending, b.s(), b.ell, b.k)
	if err != nil {
		return err
	}
	b.top = top
	b.top1, b.topDD = nil, nil
	switch t := top.(type) {
	case *bfdn1:
		b.top1 = t
	case *divideDepth:
		b.topDD = t
	}
	return d.Err()
}

// s returns the current phase's base step 2^{phaseJ} (budget parameter of
// startPhase), used to validate decoded instances.
func (b *BFDNL) s() int { return 1 << b.phaseJ }

// encodeAnchored writes one node of the instance tree with a type tag.
func encodeAnchored(e *snap.Encoder, a Anchored) {
	switch t := a.(type) {
	case *bfdn1:
		e.Uint64(uint64(tagBFDN1))
		e.Int(t.b.MaxAnchorDepth())
		e.Ints(t.b.Robots())
		e.Int32(int32(t.b.Root()))
		t.b.SnapshotState(e)
	case *divideDepth:
		e.Uint64(uint64(tagDivide))
		e.Int(t.level)
		e.Int(t.kstar)
		e.Int(t.s)
		e.Ints(t.robots)
		e.Int32(int32(t.root))
		e.Int(t.iter)
		e.Int(int(t.phase))
		e.Bool(t.ranOnce)
		e.Bool(t.seeded)
		e.Int(len(t.children))
		for _, c := range t.children {
			encodeAnchored(e, c)
		}
		e.Int(len(t.plans))
		for i := range t.plans {
			p := &t.plans[i]
			e.Int(p.robot)
			e.Int(len(p.path))
			for _, u := range p.path {
				e.Int32(int32(u))
			}
		}
	default:
		// Unreachable: buildLevel only produces the two types above.
		panic(fmt.Sprintf("recursive: cannot snapshot Anchored of type %T", a))
	}
}

// decodeAnchored reconstructs one node of the instance tree and restores
// its leaves against the restored world v and the pending events. baseStep
// is the phase's base step s, maxLevel the node's highest possible level
// and k the robot count; they bound the decoded parameters.
func decodeAnchored(d *snap.Decoder, v *sim.View, pending []sim.ExploreEvent, baseStep, maxLevel, k int) (Anchored, error) {
	tag := d.Uint64()
	if err := d.Err(); err != nil {
		return nil, err
	}
	switch byte(tag) {
	case tagBFDN1:
		depth := d.Int()
		robots := d.Ints()
		root := tree.NodeID(d.Int32())
		if d.Err() != nil || depth < 0 || !validTeam(robots, k) {
			return nil, fmt.Errorf("recursive: corrupt BFDN₁ node header")
		}
		a := &bfdn1{b: core.NewInstance(robots, root, core.WithMaxAnchorDepth(depth))}
		if err := a.b.RestoreState(d, v, pending); err != nil {
			return nil, err
		}
		return a, nil
	case tagDivide:
		level := d.Int()
		kstar := d.Int()
		s := d.Int()
		robots := d.Ints()
		root := tree.NodeID(d.Int32())
		if d.Err() != nil || level < 2 || level > maxLevel || kstar < 1 || s < 1 || s > baseStep || !validTeam(robots, k) {
			return nil, fmt.Errorf("recursive: corrupt divide-depth node header")
		}
		dd := newDivideDepth(level, robots, root, s, kstar)
		dd.iter = d.Int()
		dd.phase = dPhase(d.Int())
		dd.ranOnce = d.Bool()
		dd.seeded = d.Bool()
		if d.Err() != nil || dd.phase < 0 || dd.phase > phaseDone {
			return nil, fmt.Errorf("recursive: corrupt divide-depth phase")
		}
		nc := d.Int()
		if d.Err() != nil || nc < 0 || nc > len(robots) {
			return nil, fmt.Errorf("recursive: corrupt child count %d", nc)
		}
		for i := 0; i < nc; i++ {
			c, err := decodeAnchored(d, v, pending, baseStep, level-1, k)
			if err != nil {
				return nil, err
			}
			dd.children = append(dd.children, c)
		}
		np := d.Int()
		if d.Err() != nil || np < 0 || np > len(robots) {
			return nil, fmt.Errorf("recursive: corrupt travel plan count %d", np)
		}
		for i := 0; i < np; i++ {
			robot := d.Int()
			m := d.SliceLen()
			if err := d.Err(); err != nil {
				return nil, fmt.Errorf("recursive: corrupt travel plan: %w", err)
			}
			path := make([]tree.NodeID, 0, m)
			for j := 0; j < m; j++ {
				path = append(path, tree.NodeID(d.Int32()))
			}
			dd.plans = append(dd.plans, travelPlan{robot: robot, path: path})
		}
		return dd, nil
	default:
		return nil, fmt.Errorf("recursive: unknown Anchored type tag %d", tag)
	}
}

// validTeam reports whether robots is a non-empty list of robot indices
// below k, as every team of an instance tree is.
func validTeam(robots []int, k int) bool {
	for _, r := range robots {
		if r < 0 || r >= k {
			return false
		}
	}
	return len(robots) > 0
}
