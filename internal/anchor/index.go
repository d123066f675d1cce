// Package anchor is the anchor index behind BFDN's Reanchor rule
// (Algorithm 1, line 28): the open nodes — explored nodes adjacent to at
// least one dangling edge — bucketed by depth, with a lazy load heap per
// bucket, so a robot at the root is sent to the least-loaded open node of
// minimal depth in amortized logarithmic time. The round engine
// (internal/core), the continuous-time engine (internal/async) and the
// graph variant (internal/graph) share this one index; Snapshot and Restore
// carry it across a checkpoint.
package anchor

import (
	"fmt"

	"bfdn/internal/tree"
)

// Index maintains the set U of candidate anchors, bucketed by depth
// (relative to the caller's root). The minimal open depth is non-decreasing
// over a run of BFDN — every newly opened node is strictly deeper than the
// node it was discovered from — so the index keeps a forward-only cursor.
//
// Each bucket stores its members in a swap-delete slice (O(1) add/remove,
// supports random and round-robin policies) and, for the load-based policies,
// a lazy binary heap of (load, node) entries that is validated on pop.
type Index struct {
	buckets  []*depthBucket
	minDepth int
	// meta[v] packs the two per-node tables — bucket position (-1 if not
	// open) and anchor load n_v — into one 8-byte word, so the index probes
	// on the absorb and re-anchor paths cost one cache line per node
	// instead of two parallel-array accesses.
	meta metaTable
	// sign is +1 for min-load (least-loaded) ordering, -1 for max-load.
	sign int
}

type depthBucket struct {
	members []tree.NodeID
	heap    loadHeap
	cursor  int // round-robin position
}

// nodeMeta is the per-node word of the anchor index: pos is the node's
// index in its depth bucket's members slice (-1 when the node is not open),
// load is n_v, the number of robots currently anchored at the node.
type nodeMeta struct {
	pos  int32
	load int32
}

// metaTable is a growable nodeMeta slice indexed by NodeID; absent entries
// read as {pos: -1, load: 0}.
type metaTable struct {
	vals []nodeMeta
}

func (g *metaTable) at(v tree.NodeID) nodeMeta {
	if int(v) >= len(g.vals) {
		return nodeMeta{pos: -1}
	}
	return g.vals[v]
}

// ref returns a mutable pointer to v's entry, growing the table as needed.
// The pointer is invalidated by the next ref call on a larger id.
func (g *metaTable) ref(v tree.NodeID) *nodeMeta {
	if int(v) >= len(g.vals) {
		g.grow(int(v) + 1)
	}
	return &g.vals[v]
}

// grow extends the table to n entries in one step (one growslice at most,
// not one per missing id).
func (g *metaTable) grow(n int) {
	old := len(g.vals)
	if cap(g.vals) >= n {
		g.vals = g.vals[:n]
	} else {
		vals := make([]nodeMeta, n, max(n, 2*cap(g.vals)))
		copy(vals, g.vals)
		g.vals = vals
	}
	for i := old; i < n; i++ {
		g.vals[i] = nodeMeta{pos: -1}
	}
}

// reset refills the backing array with the default value, keeping capacity.
func (g *metaTable) reset() {
	for i := range g.vals {
		g.vals[i] = nodeMeta{pos: -1}
	}
}

type loadEntry struct {
	node tree.NodeID
	load int32
}

// loadHeap is a lazy binary min-heap of (load, node) entries. The sift
// routines are concrete transcriptions of container/heap's up/down — the
// exact same comparison and swap sequence, so entry order (and therefore
// load tie-breaking) is bit-compatible with the interface-based version
// they replace, without the dynamic dispatch on every comparison.
type loadHeap []loadEntry

func (h loadHeap) siftUp(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || h[j].load >= h[i].load {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

// siftDown reports whether the entry moved, mirroring container/heap.down.
func (h loadHeap) siftDown(i int) bool {
	n := len(h)
	i0 := i
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h[j2].load < h[j1].load {
			j = j2 // right child
		}
		if h[j].load >= h[i].load {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	return i > i0
}

// push appends e and restores heap order (container/heap.Fix on the last
// element, which reduces to a sift-up).
func (h *loadHeap) push(e loadEntry) {
	*h = append(*h, e)
	s := *h
	if !s.siftDown(len(s) - 1) {
		s.siftUp(len(s) - 1)
	}
}

// dropRoot discards the root entry (container/heap.Fix at index 0 after
// swapping in the last element).
func (h *loadHeap) dropRoot() {
	old := *h
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	if n > 0 {
		s := *h
		if !s.siftDown(0) {
			s.siftUp(0)
		}
	}
}

// New returns an empty index that picks the least-loaded open node
// (minLoadOrder) or the most-loaded one.
func New(minLoadOrder bool) *Index {
	sign := 1
	if !minLoadOrder {
		sign = -1
	}
	return &Index{sign: sign}
}

// Reset empties the index in place — buckets, the load and position tables,
// and the depth cursor — keeping every backing array, so a recycled
// instance re-seeds without allocating. The buckets themselves are dropped,
// not just emptied: a caller may query the minimal open depth while nothing
// is open (the continuous-time engine closes a node before its child
// opens), and leftover empty buckets would carry the forward-only cursor
// past that child's depth.
func (a *Index) Reset() {
	a.buckets = a.buckets[:0]
	a.minDepth = 0
	a.meta.reset()
}

// bucket returns the bucket at depth, creating the missing ones. Buckets
// dropped by Reset or Restore are re-exposed from the slice's spare
// capacity and emptied, reusing their member and heap arrays.
func (a *Index) bucket(depth int) *depthBucket {
	for depth >= len(a.buckets) {
		n := len(a.buckets)
		if n < cap(a.buckets) && a.buckets[:n+1][n] != nil {
			a.buckets = a.buckets[:n+1]
			b := a.buckets[n]
			b.members, b.heap, b.cursor = b.members[:0], b.heap[:0], 0
		} else {
			a.buckets = append(a.buckets, &depthBucket{})
		}
	}
	return a.buckets[depth]
}

// AddOpen registers node v (relative depth d) as adjacent to dangling edges.
// It is idempotent: a node can reach it twice when an instance is seeded
// from the view in the same round that delivers the node's explore event.
func (a *Index) AddOpen(v tree.NodeID, d int) {
	m := a.meta.ref(v)
	if m.pos >= 0 {
		return
	}
	b := a.bucket(d)
	m.pos = int32(len(b.members))
	b.members = append(b.members, v)
	b.heap.push(loadEntry{node: v, load: int32(a.sign) * m.load})
}

// Close removes node v (relative depth d) from the open set. It is a no-op
// if v is not currently open.
func (a *Index) Close(v tree.NodeID, d int) {
	p := a.meta.at(v).pos
	if p < 0 {
		return
	}
	b := a.buckets[d]
	last := len(b.members) - 1
	moved := b.members[last]
	b.members[p] = moved
	b.members = b.members[:last]
	if moved != v {
		a.meta.ref(moved).pos = p
	}
	a.meta.ref(v).pos = -1
	if b.cursor > int(p) {
		b.cursor--
	}
	// Heap entries for v become stale and are discarded lazily on pop.
}

// ChangeLoad adjusts n_v by delta, refreshing the heap entry if v is open.
func (a *Index) ChangeLoad(v tree.NodeID, vDepth int, delta int) {
	m := a.meta.ref(v)
	m.load += int32(delta)
	if m.pos >= 0 {
		b := a.buckets[vDepth]
		b.heap.push(loadEntry{node: v, load: int32(a.sign) * m.load})
	}
}

// MinOpenDepth advances the cursor to the smallest depth ≤ limit that has an
// open node and returns it; ok is false if no open node exists at depth ≤
// limit. limit < 0 means unlimited.
func (a *Index) MinOpenDepth(limit int) (int, bool) {
	for a.minDepth < len(a.buckets) && len(a.buckets[a.minDepth].members) == 0 {
		a.minDepth++
	}
	if a.minDepth >= len(a.buckets) {
		return 0, false
	}
	if limit >= 0 && a.minDepth > limit {
		return 0, false
	}
	return a.minDepth, true
}

// PickMinLoad returns the valid least-load (or most-load, per the order given
// to New) open node at depth d, discarding the stale heap entries above it.
// The bucket must be non-empty. Every open member has at least one valid
// heap entry (AddOpen and ChangeLoad both push), so a heap that drains
// while members remain is an internal invariant violation, reported as an
// error rather than a panic deep in the caller's decision loop.
func (a *Index) PickMinLoad(d int) (tree.NodeID, error) {
	b := a.buckets[d]
	for len(b.heap) > 0 {
		e := b.heap[0]
		if m := a.meta.at(e.node); m.pos < 0 || e.load != int32(a.sign)*m.load {
			b.heap.dropRoot() // stale entry
			continue
		}
		return e.node, nil
	}
	return 0, fmt.Errorf("anchor: index invariant violated: depth %d has %d open nodes but no live heap entry", d, len(b.members))
}

// Depths reports how many depth buckets the index holds, empty ones
// included.
func (a *Index) Depths() int { return len(a.buckets) }

// Members returns the open nodes at depth d in bucket order. The slice is
// the index's own; copy it before the next mutation.
func (a *Index) Members(d int) []tree.NodeID { return a.buckets[d].members }

// PickRoundRobin returns the next member in rotation at depth d.
func (a *Index) PickRoundRobin(d int) tree.NodeID {
	b := a.buckets[d]
	if b.cursor >= len(b.members) {
		b.cursor = 0
	}
	v := b.members[b.cursor]
	b.cursor++
	return v
}
