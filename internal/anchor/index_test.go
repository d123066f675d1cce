package anchor

import (
	"math/rand"
	"testing"

	"bfdn/internal/tree"
)

// TestOpenIndexInvariantRandomOps drives the index with random add /
// close / changeLoad sequences, in both load orders, and checks the
// minimal open depth and PickMinLoad against a brute-force scan after
// every operation: correct node choice, never an invariant error, and
// never a panic.
func TestOpenIndexInvariantRandomOps(t *testing.T) {
	for _, minLoad := range []bool{true, false} {
		rng := rand.New(rand.NewSource(101))
		const nodes, depths = 60, 6
		for trial := 0; trial < 50; trial++ {
			idx := New(minLoad)
			depth := make(map[tree.NodeID]int)
			// minDepth is monotone by design (the engines only open strictly
			// deeper nodes as claims progress), so assign each node a depth
			// and only add at depths ≥ the current minimum open depth.
			for op := 0; op < 400; op++ {
				v := tree.NodeID(rng.Intn(nodes))
				switch rng.Intn(4) {
				case 0: // add at a legal depth
					d, ok := depth[v]
					if !ok {
						d = minOpenDepth(idx, depth) + rng.Intn(depths)
						depth[v] = d
					}
					if isOpen(idx, v) || d < minOpenDepth(idx, depth) {
						continue
					}
					idx.AddOpen(v, d)
				case 1: // close an open node
					if d, ok := depth[v]; ok && isOpen(idx, v) {
						idx.Close(v, d)
					}
				default: // load churn, open or not
					d, ok := depth[v]
					if !ok {
						d = rng.Intn(depths)
						depth[v] = d
					}
					idx.ChangeLoad(v, d, 1-2*rng.Intn(2))
				}
				gotDepth, ok := idx.MinOpenDepth(-1)
				wantDepth, anyOpen := bruteMinDepth(idx, depth)
				if ok != anyOpen {
					t.Fatalf("minLoad=%v trial %d op %d: ok=%v, brute force says open=%v", minLoad, trial, op, ok, anyOpen)
				}
				if !ok {
					continue
				}
				if gotDepth != wantDepth {
					t.Fatalf("minLoad=%v trial %d op %d: depth %d, want %d", minLoad, trial, op, gotDepth, wantDepth)
				}
				got, err := idx.PickMinLoad(gotDepth)
				if err != nil {
					t.Fatalf("minLoad=%v trial %d op %d: invariant error: %v", minLoad, trial, op, err)
				}
				if !isOpen(idx, got) || depth[got] != gotDepth {
					t.Fatalf("minLoad=%v trial %d op %d: returned node %d not open at depth %d", minLoad, trial, op, got, gotDepth)
				}
				if want := bruteBestLoad(idx, depth, wantDepth, minLoad); idx.meta.at(got).load != want {
					t.Fatalf("minLoad=%v trial %d op %d: load %d at node %d, brute-force best is %d", minLoad, trial, op, idx.meta.at(got).load, got, want)
				}
			}
		}
	}
}

func isOpen(idx *Index, v tree.NodeID) bool { return idx.meta.at(v).pos >= 0 }

func minOpenDepth(idx *Index, depth map[tree.NodeID]int) int {
	d, ok := bruteMinDepth(idx, depth)
	if !ok {
		return idx.minDepth
	}
	return d
}

func bruteMinDepth(idx *Index, depth map[tree.NodeID]int) (int, bool) {
	best, found := 0, false
	for v, d := range depth {
		if isOpen(idx, v) && (!found || d < best) {
			best, found = d, true
		}
	}
	return best, found
}

func bruteBestLoad(idx *Index, depth map[tree.NodeID]int, d int, minLoad bool) int32 {
	var best int32
	found := false
	for v, dv := range depth {
		if !isOpen(idx, v) || dv != d {
			continue
		}
		l := idx.meta.at(v).load
		if !found || (minLoad && l < best) || (!minLoad && l > best) {
			best, found = l, true
		}
	}
	return best
}

// TestOpenIndexDesyncIsAnError forces a members/heap desync: PickMinLoad
// must surface an actionable invariant error instead of panicking on an
// empty heap.
func TestOpenIndexDesyncIsAnError(t *testing.T) {
	idx := New(true)
	idx.AddOpen(3, 0)
	idx.buckets[0].heap = idx.buckets[0].heap[:0] // member still listed
	if _, err := idx.PickMinLoad(0); err == nil {
		t.Fatal("desynced index returned no error")
	}
	// A stale-entries-only heap desyncs the same way.
	idx2 := New(true)
	idx2.AddOpen(5, 2)
	idx2.ChangeLoad(5, 2, 1)  // second (live) entry; first goes stale
	idx2.meta.ref(5).load = 7 // corrupt: load changed without a heap push
	if _, err := idx2.PickMinLoad(2); err == nil {
		t.Fatal("stale-heap desync returned no error")
	}
}

// TestOpenIndexReset: after Reset the index is indistinguishable from a
// fresh one — no open node, no load, no bucket and a zero depth cursor.
func TestOpenIndexReset(t *testing.T) {
	idx := New(true)
	idx.AddOpen(1, 1)
	idx.AddOpen(2, 3)
	idx.ChangeLoad(1, 1, 2)
	idx.Close(2, 3)
	idx.Reset()
	if _, ok := idx.MinOpenDepth(-1); ok {
		t.Fatal("reset index still has open nodes")
	}
	for v, m := range idx.meta.vals {
		if m != (nodeMeta{pos: -1}) {
			t.Fatalf("reset left node %d with %+v", v, m)
		}
	}
	if len(idx.buckets) != 0 || idx.minDepth != 0 {
		t.Fatalf("reset left %d buckets and depth cursor %d", len(idx.buckets), idx.minDepth)
	}
	idx.AddOpen(7, 0)
	d, ok := idx.MinOpenDepth(-1)
	if !ok || d != 0 {
		t.Fatalf("reset index unusable: depth %d ok=%v", d, ok)
	}
	if v, err := idx.PickMinLoad(d); err != nil || v != 7 {
		t.Fatalf("reset index unusable: %v %v", v, err)
	}
}
