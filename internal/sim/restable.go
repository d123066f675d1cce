package sim

import "bfdn/internal/tree"

// resTable counts the dangling edges handed out at each node in the current
// round (DESIGN.md S31). It holds only the nodes reserved this round, in an
// open-addressed table with linear probing, so its size follows the
// reservations of one round rather than the size of the tree. The table
// doubles before an insert would fill it past half, so a probe always
// reaches an empty slot. clear empties it in time proportional to its
// entries. The zero value is an empty table.
type resTable struct {
	slots []resSlot // power-of-two length
	used  []int32   // indices of the occupied slots, in insertion order
	shift uint8     // 32 - log2(len(slots))
}

// resSlot is one entry: key is the node ID plus one, so a zeroed slot is
// empty, and count is the number of its dangling edges reserved this round.
type resSlot struct {
	key   int32
	count int32
}

const resTableMinSlots = 16

// home is v's first probe position: Fibonacci hashing, the top bits of
// the key times 2^32/φ.
func (r *resTable) home(key int32) int {
	return int(uint32(key) * 0x9E3779B9 >> r.shift)
}

// count reports the reservations made at v this round.
func (r *resTable) count(v tree.NodeID) int32 {
	if len(r.used) == 0 {
		return 0
	}
	key := int32(v) + 1
	mask := len(r.slots) - 1
	for i := r.home(key); ; i = (i + 1) & mask {
		s := r.slots[i]
		if s.key == key {
			return s.count
		}
		if s.key == 0 {
			return 0
		}
	}
}

// slot returns v's entry, inserting an empty one if v has none yet.
func (r *resTable) slot(v tree.NodeID) *resSlot {
	if 2*(len(r.used)+1) > len(r.slots) {
		r.grow()
	}
	key := int32(v) + 1
	mask := len(r.slots) - 1
	i := r.home(key)
	for r.slots[i].key != key {
		if r.slots[i].key == 0 {
			r.slots[i].key = key
			r.used = append(r.used, int32(i))
			break
		}
		i = (i + 1) & mask
	}
	return &r.slots[i]
}

// grow doubles the table (or allocates its first slots) and rehashes the
// entries in insertion order.
func (r *resTable) grow() {
	old := r.slots
	n := 2 * len(old)
	if n < resTableMinSlots {
		n = resTableMinSlots
	}
	r.slots = make([]resSlot, n)
	r.shift = 32
	for m := n; m > 1; m >>= 1 {
		r.shift--
	}
	mask := n - 1
	for j, oi := range r.used {
		s := old[oi]
		i := r.home(s.key)
		for r.slots[i].key != 0 {
			i = (i + 1) & mask
		}
		r.slots[i] = s
		r.used[j] = int32(i)
	}
}

// clear drops every entry.
func (r *resTable) clear() {
	for _, i := range r.used {
		r.slots[i] = resSlot{}
	}
	r.used = r.used[:0]
}
