package sim

import "bfdn/internal/tree"

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

// Rebuild derives the counts from a restored world (DESIGN.md S30), so the
// ledger has no checkpoint of its own: it sums the world's dangling counts
// over every explored subtree, then takes out what the next Update adds for
// the pending events. After that Update the counts equal the world's.
func (l *OpenLedger) Rebuild(v *View, pending []ExploreEvent) {
	c := make([]int32, len(v.w.dangling))
	// Explored nodes in preorder; summed in reverse, every subtree is
	// complete before it is added into its parent.
	order := []tree.NodeID{tree.Root}
	for i := 0; i < len(order); i++ {
		order = append(order, v.ExploredChildren(order[i])...)
	}
	for i := len(order) - 1; i >= 0; i-- {
		u := order[i]
		c[u] += v.w.dangling[u]
		if u != tree.Root {
			c[v.Parent(u)] += c[u]
		}
	}
	for _, e := range pending {
		c[e.Child] -= int32(e.NewDangling)
		for u := e.Parent; u != tree.Nil; u = v.Parent(u) {
			c[u] -= int32(e.NewDangling - 1)
		}
	}
	l.counts, l.seeded = c, true
}
