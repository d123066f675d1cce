package async

import "bfdn/internal/tree"

// slotIndex is an order-statistic index over the unclaimed dangling edges
// of the explored tree, in the slot order the Potential rule enumerates
// them: at each node, its explored children in port order, each followed by
// its own subtree, then the node's own unclaimed edges.
//
// The order is kept as an Euler-tour sequence of markers. Node v has an
// enter marker 2v and an exit marker 2v+1; the exit marker carries v's
// unclaimed count as its weight, the enter marker weighs nothing. A leaf
// gets no enter marker, since it never gains a child. The block of an
// explored node runs from its enter marker to its exit marker, so a newly
// explored child goes right after the exit marker of its nearest explored
// left sibling, or right after its parent's enter marker if it has none.
// Neither position depends on where the block sits in the sequence, which
// is what lets discovery insert without counting anything.
//
// The sequence lives in a B+tree whose entries carry weights: a leaf entry
// is a marker and its weight, an inner entry a child block and the total
// weight below it. leafOf finds a marker's leaf, and parent links lead from
// there to the root, so an insertion after a known marker or a weight
// change needs no search. Finding a slot is one descent that skips whole
// entries by weight, and a claim at the slot just found retraces that
// descent. Each operation is O(slotFan · log n), and Reset keeps every
// slice.
type slotIndex struct {
	blocks []slotBlock
	// leafOf[a] is the leaf block holding marker a. An entry is meaningful
	// only once its marker has been inserted in the current run; Reset does
	// not clear it.
	leafOf []int32
	root   int32
	total  int32 // the weight of the whole sequence
	// path is the last find's descent, root first: the block and the entry
	// taken at each level, which takeFound spends without searching.
	path  [slotMaxHeight]slotStep
	depth int
}

// slotStep is one level of a descent: entry j of block b.
type slotStep struct{ b, j int32 }

// slotMaxHeight bounds the height of the B+tree. Blocks only split, so
// every block but the root is at least half full, and h levels need
// 2·(slotFan/2)^(h−1) markers: 8 levels is beyond any int32 marker id.
const slotMaxHeight = 8

// slotFan is the most entries a block holds; a full block splits in half.
const slotFan = 32

// slotBlock is a B+tree node. In a leaf, key[j] is a marker and w[j] its
// weight; in an inner block, key[j] is a child block and w[j] the weight of
// that child's entries.
type slotBlock struct {
	w      [slotFan]int32
	leaf   bool
	n      int32
	parent int32
	key    [slotFan]int32
}

// noMarker marks a missing marker, and a missing block: the root's parent.
const noMarker = -1

func enterMarker(v tree.NodeID) int32 { return 2 * int32(v) }
func exitMarker(v tree.NodeID) int32  { return 2*int32(v) + 1 }

// reset empties the sequence.
func (x *slotIndex) reset() {
	x.blocks = x.blocks[:0]
	x.root, x.total = noMarker, 0
}

// explore adds node v with w unclaimed edges right after marker after, or
// as the whole sequence when after is noMarker (the root).
func (x *slotIndex) explore(v tree.NodeID, after int32, w int) {
	exit := exitMarker(v)
	if need := int(exit) + 1; need > len(x.leafOf) {
		if need > cap(x.leafOf) {
			grown := make([]int32, need, max(need, 2*cap(x.leafOf)))
			copy(grown, x.leafOf)
			x.leafOf = grown
		}
		x.leafOf = x.leafOf[:need]
	}
	if after == noMarker {
		x.root = x.newBlock(true, noMarker)
		x.insertAt(x.root, 0, exit)
		if w > 0 {
			x.insertAt(x.root, 0, enterMarker(v))
		}
	} else {
		if w > 0 {
			after = x.insertAfter(after, enterMarker(v))
		}
		x.insertAfter(after, exit)
	}
	x.add(exit, w)
}

// find returns the node holding slot s, 0 ≤ s < total, and records the
// descent for takeFound.
func (x *slotIndex) find(s int) tree.NodeID {
	id := x.root
	r := int32(s)
	for d := 0; ; d++ {
		b := &x.blocks[id]
		j := int32(0)
		for r >= b.w[j] {
			r -= b.w[j]
			j++
		}
		x.path[d] = slotStep{id, j}
		if b.leaf {
			x.depth = d + 1
			return tree.NodeID(b.key[j] >> 1)
		}
		id = b.key[j]
	}
}

// takeFound takes one unclaimed edge off the node the last find returned.
// The sequence must not have changed since that find.
func (x *slotIndex) takeFound() {
	x.total--
	for _, st := range x.path[:x.depth] {
		x.blocks[st.b].w[st.j]--
	}
}

// add changes the weight of marker a by d.
func (x *slotIndex) add(a int32, d int) {
	x.total += int32(d)
	x.bubble(x.leafOf[a], a, int32(d))
}

// bubble adds d to the entry of key in block b and to b's entry in each
// ancestor.
func (x *slotIndex) bubble(b, key, d int32) {
	for ; b != noMarker; key, b = b, x.blocks[b].parent {
		blk := &x.blocks[b]
		blk.w[blk.index(key)] += d
	}
}

// insertAfter puts weightless marker a right after marker after and
// returns a.
func (x *slotIndex) insertAfter(after, a int32) int32 {
	b := x.leafOf[after]
	x.insertAt(b, x.blocks[b].index(after)+1, a)
	return a
}

// index is the position of key in b; key must be there.
func (b *slotBlock) index(key int32) int32 {
	j := int32(0)
	for b.key[j] != key {
		j++
	}
	return j
}

// newBlock appends an empty block and returns its id.
func (x *slotIndex) newBlock(leaf bool, parent int32) int32 {
	x.blocks = append(x.blocks, slotBlock{leaf: leaf, parent: parent})
	return int32(len(x.blocks) - 1)
}

// insertAt puts key with weight 0 at position j of block b, splitting b
// first when it is full.
func (x *slotIndex) insertAt(b, j, key int32) {
	if x.blocks[b].n == slotFan {
		nb := x.split(b)
		if j > slotFan/2 {
			b, j = nb, j-slotFan/2
		}
	}
	blk := &x.blocks[b]
	copy(blk.key[j+1:blk.n+1], blk.key[j:blk.n])
	copy(blk.w[j+1:blk.n+1], blk.w[j:blk.n])
	blk.key[j], blk.w[j] = key, 0
	blk.n++
	x.adopt(blk.leaf, key, b)
}

// split moves the upper half of full block b into a new block, links that
// block into b's parent right after b (growing a new root when b is the
// root), and returns it. The moved weight leaves b's ancestors before the
// new block is linked and joins the new block's ancestors after, so every
// insertion is weightless and a split of the parent needs no correction.
func (x *slotIndex) split(b int32) int32 {
	nb := x.newBlock(x.blocks[b].leaf, x.blocks[b].parent)
	blk, nblk := &x.blocks[b], &x.blocks[nb]
	const half = slotFan / 2
	copy(nblk.key[:], blk.key[half:])
	copy(nblk.w[:], blk.w[half:])
	blk.n, nblk.n = half, half
	kept, moved := int32(0), int32(0)
	for j := int32(0); j < half; j++ {
		kept += blk.w[j]
		moved += nblk.w[j]
		x.adopt(nblk.leaf, nblk.key[j], nb)
	}
	if b == x.root {
		x.root = x.newBlock(false, noMarker)
		root := &x.blocks[x.root]
		root.key[0], root.w[0], root.n = b, kept+moved, 1
		x.blocks[b].parent = x.root
	}
	p := x.blocks[b].parent
	x.bubble(p, b, -moved)
	x.insertAt(p, x.blocks[p].index(b)+1, nb)
	x.bubble(x.blocks[nb].parent, nb, moved)
	return nb
}

// adopt records that key, a marker when leaf is set and a block otherwise,
// now sits in block b.
func (x *slotIndex) adopt(leaf bool, key, b int32) {
	if leaf {
		x.leafOf[key] = b
	} else {
		x.blocks[key].parent = b
	}
}
