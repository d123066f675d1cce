package sim

import (
	"fmt"

	"bfdn/internal/snap"
	"bfdn/internal/tree"
)

// OpenLedger keeps open(T(v)), the number of dangling edges in the explored
// subtree T(v), for every explored node v. CTE, Tree-Mining and the
// Potential Function Method all decide from this quantity; each holds one
// ledger and calls Update with the events of every round before reading it.
// The zero value is ready to use.
type OpenLedger struct {
	// counts[v] is open(T(v)), indexed by NodeID. It covers every explored
	// node once Update has absorbed the event that discovered it.
	counts []int32
	seeded bool
}

// Update folds one round's explore events into the counts. The first call
// seeds the root with its dangling edges. Discovering a child with m hidden
// children consumes one dangling edge at the parent and adds m at the child:
// +m at the child and m−1 on the parent and every ancestor above it. An
// explored node is discovered before its children, so the ancestors of an
// event's child already have entries and the walk indexes them directly.
func (l *OpenLedger) Update(v *View, events []ExploreEvent) {
	if !l.seeded {
		l.grow(tree.Root)
		l.counts[tree.Root] += int32(v.DanglingAt(tree.Root))
		l.seeded = true
	}
	for _, e := range events {
		l.grow(e.Child)
		c := l.counts
		c[e.Child] += int32(e.NewDangling)
		if delta := int32(e.NewDangling - 1); delta != 0 {
			for u := e.Parent; u != tree.Nil; u = v.Parent(u) {
				c[u] += delta
			}
		}
	}
}

// grow extends the counts with zeros until id has an entry. It appends one
// zero at a time: append(s, make(...)...) allocates the temporary slice in
// race-instrumented builds, which the allocation pins would catch.
func (l *OpenLedger) grow(id tree.NodeID) {
	for int(id) >= len(l.counts) {
		l.counts = append(l.counts, 0)
	}
}

// Open returns open(T(id)), or 0 for a node the ledger has not seen.
func (l *OpenLedger) Open(id tree.NodeID) int32 {
	if int(id) >= len(l.counts) {
		return 0
	}
	return l.counts[id]
}

// Counts returns the counts indexed by NodeID, for hot loops that read many
// explored nodes. Every explored node has an entry. The slice is shared; do
// not modify it, and do not keep it past the next Update.
func (l *OpenLedger) Counts() []int32 { return l.counts }

// Reset empties the ledger for a new run, keeping its storage.
func (l *OpenLedger) Reset() {
	l.counts = l.counts[:0]
	l.seeded = false
}

// Snapshot writes k, the seeding flag and the counts: the whole checkpoint
// (DESIGN.md S30) of an algorithm for k robots whose only cross-round
// memory is the ledger.
func (l *OpenLedger) Snapshot(e *snap.Encoder, k int) {
	e.Int(k)
	e.Bool(l.seeded)
	e.Int32s(l.counts)
}

// Restore reads what Snapshot wrote back into l. It fails if the snapshot
// was taken for another robot count than k.
func (l *OpenLedger) Restore(d *snap.Decoder, k int) error {
	if got := d.Int(); d.Err() == nil && got != k {
		return fmt.Errorf("sim: snapshot is for k=%d, instance has k=%d", got, k)
	}
	l.seeded = d.Bool()
	l.counts = append(l.counts[:0], d.Int32s()...)
	return d.Err()
}
