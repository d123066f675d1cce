package sim

// This file is the checkpoint/restore layer of the model (DESIGN.md S30):
// a World and its algorithm serialize their mutable state between rounds,
// so a long exploration can be journaled by internal/jobstore and resumed
// after a crash. The contract mirrors Reset/Recycle (S22): a restored
// (world, algorithm) pair must be indistinguishable — byte for byte in the
// rounds it goes on to produce — from the uninterrupted run, which is what
// keeps the paper's determinism guarantees (the Claim 2 reservation
// machinery included) intact across a process boundary.

import (
	"fmt"

	"bfdn/internal/snap"
	"bfdn/internal/tree"
)

// Snapshotter is the optional checkpoint interface of an Algorithm: encode
// every piece of state that influences future SelectMoves calls and that
// the restored world does not fix, in a fixed order, such that RestoreState
// on a freshly constructed instance (same constructor parameters, then
// Reset as for recycling) reproduces it exactly. RestoreState sees the
// restored world v and the pending events: it derives what they fix
// (open-edge ledgers, position depths) and checks the rest against the
// tree. Scratch buffers rebuilt each round are skipped; anything else with
// cross-round memory — anchors, stacks, lazy-heap internals whose
// tie-breaking depends on insertion history — is serialized verbatim.
type Snapshotter interface {
	SnapshotState(e *snap.Encoder)
	RestoreState(d *snap.Decoder, v *View, pending []ExploreEvent) error
}

// checkpointVersion tags the EncodeCheckpoint format; a mismatch on restore
// means the snapshot was written by an incompatible binary.
const checkpointVersion = 2

// Snapshot appends the world's mutable exploration state to e: positions,
// the per-node dangling words (DESIGN.md S31; -1 marks an unexplored node),
// the round counter and the full metrics. The explored set, its count and
// the child cursors all follow from the dangling words. Per-round
// reservation state is deliberately excluded — checkpoints are taken
// between rounds, where no reservation is live (a Ticket never outlives
// the round that issued it).
func (w *World) Snapshot(e *snap.Encoder) {
	e.Int(w.k)
	e.Int(w.t.N())
	for _, p := range w.pos {
		e.Int32(int32(p))
	}
	e.Int32s(w.dangling)
	e.Int(w.round)
	e.Int(w.metrics.Rounds)
	e.Int(w.metrics.TotalRounds)
	e.Int64(w.metrics.Moves)
	e.Int64s(w.metrics.MovesPerRobot)
	e.Int(w.metrics.StillRobotRounds)
	e.Int(w.metrics.EdgeExplorations)
	e.Int(w.metrics.DiscoveredEdges)
}

// Restore reads a Snapshot back into w, which must already hold the same
// tree and robot count (NewWorld or Reset with the checkpoint's plan).
// Reservation state is cleared: every stored reservation belonged to a
// round strictly before the restored one, so none can be live.
func (w *World) Restore(d *snap.Decoder) error {
	k, n := d.Int(), d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if k != w.k || n != w.t.N() {
		return fmt.Errorf("sim: snapshot is for k=%d, n=%d; world has k=%d, n=%d", k, n, w.k, w.t.N())
	}
	w.res.clear()
	for i := range w.pos {
		w.pos[i] = tree.NodeID(d.Int32())
	}
	if dangling := d.Int32s(); d.Err() == nil {
		if len(dangling) != n {
			return fmt.Errorf("sim: snapshot has %d dangling words, want %d", len(dangling), n)
		}
		count, err := w.checkRestored(dangling)
		if err != nil {
			return err
		}
		copy(w.dangling, dangling)
		w.exploredCount = count
	}
	w.round = d.Int()
	if d.Err() == nil && w.round < 0 {
		return fmt.Errorf("sim: snapshot round %d is negative: %w", w.round, snap.ErrCorrupt)
	}
	w.metrics.Rounds = d.Int()
	w.metrics.TotalRounds = d.Int()
	w.metrics.Moves = d.Int64()
	per := d.Int64s()
	if d.Err() == nil && len(per) != k {
		return fmt.Errorf("sim: snapshot has %d per-robot counters, want %d", len(per), k)
	}
	copy(w.metrics.MovesPerRobot, per)
	w.metrics.StillRobotRounds = d.Int()
	w.metrics.EdgeExplorations = d.Int()
	w.metrics.DiscoveredEdges = d.Int()
	return d.Err()
}

// checkRestored rejects dangling words a run could not continue from and
// returns the number of explored nodes they mark: the root unexplored, a
// word outside [-1, NumChildren], an explored node under an unexplored
// parent, explored children that are not the port-order prefix the word
// implies (the world explores children in port order), or a robot off the
// explored part of the tree.
func (w *World) checkRestored(dangling []int32) (int, error) {
	if dangling[tree.Root] < 0 {
		return 0, fmt.Errorf("sim: snapshot leaves the root unexplored: %w", snap.ErrCorrupt)
	}
	count := 0
	for v, dv := range dangling {
		u := tree.NodeID(v)
		kids := w.t.Children(u)
		if dv < -1 || int(dv) > len(kids) {
			return 0, fmt.Errorf("sim: snapshot dangling word %d of node %d is outside [-1, %d]: %w", dv, v, len(kids), snap.ErrCorrupt)
		}
		if dv < 0 {
			continue
		}
		count++
		if p := w.t.Parent(u); u != tree.Root && dangling[p] < 0 {
			return 0, fmt.Errorf("sim: snapshot explores node %d under unexplored parent %d: %w", v, p, snap.ErrCorrupt)
		}
		nk := len(kids) - int(dv)
		for j, c := range kids {
			if (dangling[c] >= 0) != (j < nk) {
				return 0, fmt.Errorf("sim: snapshot dangling count %d of node %d disagrees with its explored children: %w", dv, v, snap.ErrCorrupt)
			}
		}
	}
	for i, p := range w.pos {
		if uint(p) >= uint(len(dangling)) || dangling[p] < 0 {
			return 0, fmt.Errorf("sim: snapshot puts robot %d on node %d, which is not explored: %w", i, p, snap.ErrCorrupt)
		}
	}
	return count, nil
}

// EncodeCheckpoint serializes a mid-run (world, algorithm, pending events)
// triple into one self-contained buffer. events are the explore events of
// the last committed round, which the next SelectMoves call consumes — a
// checkpoint that dropped them would desynchronize every event-driven
// algorithm. The algorithm must implement Snapshotter.
func EncodeCheckpoint(w *World, a Algorithm, events []ExploreEvent) ([]byte, error) {
	s, ok := a.(Snapshotter)
	if !ok {
		return nil, fmt.Errorf("sim: algorithm %T does not support checkpointing", a)
	}
	var e snap.Encoder
	e.Uint64(checkpointVersion)
	w.Snapshot(&e)
	e.Int(len(events))
	for _, ev := range events {
		e.Int32(int32(ev.Parent))
		e.Int32(int32(ev.Child))
		e.Int(ev.Robot)
		e.Int(ev.NewDangling)
	}
	s.SnapshotState(&e)
	return e.Bytes(), nil
}

// RestoreCheckpoint reads an EncodeCheckpoint buffer back into a world and
// algorithm prepared with the checkpoint's plan (same tree, robot count and
// constructor options, freshly Reset). It returns the pending explore
// events to hand to the first SelectMoves of the resumed run. Every restore
// check runs here, the algorithm's included, against the restored world.
func RestoreCheckpoint(state []byte, w *World, a Algorithm) ([]ExploreEvent, error) {
	s, ok := a.(Snapshotter)
	if !ok {
		return nil, fmt.Errorf("sim: algorithm %T does not support checkpointing", a)
	}
	d := snap.NewDecoder(state)
	if v := d.Uint64(); d.Err() == nil && v != checkpointVersion {
		return nil, fmt.Errorf("sim: checkpoint version %d, want %d", v, checkpointVersion)
	}
	if err := w.Restore(d); err != nil {
		return nil, fmt.Errorf("sim: restore world: %w", err)
	}
	nev := d.Int()
	if d.Err() != nil || nev < 0 || nev > w.k {
		return nil, fmt.Errorf("sim: checkpoint has %d pending events for %d robots: %w", nev, w.k, snap.ErrCorrupt)
	}
	events := make([]ExploreEvent, nev)
	for i := range events {
		events[i] = ExploreEvent{
			Parent:      tree.NodeID(d.Int32()),
			Child:       tree.NodeID(d.Int32()),
			Robot:       d.Int(),
			NewDangling: d.Int(),
		}
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	n := uint(w.t.N())
	for _, e := range events {
		if uint(e.Parent) >= n || uint(e.Child) >= n || e.Child == tree.Root || w.t.Parent(e.Child) != e.Parent {
			return nil, fmt.Errorf("sim: pending event %d→%d is not an edge of the tree: %w", e.Parent, e.Child, snap.ErrCorrupt)
		}
		if uint(e.Robot) >= uint(w.k) {
			return nil, fmt.Errorf("sim: pending event %d→%d names robot %d of %d: %w", e.Parent, e.Child, e.Robot, w.k, snap.ErrCorrupt)
		}
		// The child was discovered in the last committed round, so nothing
		// below it is explored yet: the world holds all its NewDangling
		// edges as dangling.
		if int(w.dangling[e.Child]) != e.NewDangling {
			return nil, fmt.Errorf("sim: pending event %d→%d reports %d dangling edges, the world has %d: %w", e.Parent, e.Child, e.NewDangling, w.dangling[e.Child], snap.ErrCorrupt)
		}
	}
	// ParentDangling is derived state and not part of the checkpoint format.
	// Checkpoints are taken between rounds, so the restored world's dangling
	// counts are the end-of-round values; replaying them per parent (events
	// are in round order, counts ascend from the final value) reproduces the
	// per-event counts Apply recorded. The scan is quadratic in the (≤ k)
	// pending events, which only runs once per restore.
	for i := range events {
		later := 0
		for _, e := range events[i+1:] {
			if e.Parent == events[i].Parent {
				later++
			}
		}
		events[i].ParentDangling = w.danglingAt(events[i].Parent) + later
	}
	if err := s.RestoreState(d, w.view, events); err != nil {
		return nil, fmt.Errorf("sim: restore algorithm: %w", err)
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if d.Rest() != 0 {
		return nil, fmt.Errorf("sim: %d trailing bytes in checkpoint: %w", d.Rest(), snap.ErrCorrupt)
	}
	return events, nil
}
