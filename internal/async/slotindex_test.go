package async

import (
	"fmt"
	"math/rand"
	"testing"

	"bfdn/internal/tree"
)

// slotOracle is the slot lookup the index replaced, kept as a reference:
// open[u] counts the unclaimed dangling edges in the explored part of the
// subtree T(u), and a slot is found by walking down from the root.
type slotOracle struct {
	open []int32
}

func (o *slotOracle) reset(n int) {
	o.open = append(o.open[:0], make([]int32, n)...)
}

// addPath adds d to open along u → root.
func (o *slotOracle) addPath(v View, u tree.NodeID, d int32) {
	for ; u != tree.Nil; u = v.Parent(u) {
		o.open[u] += d
	}
}

// locate resolves slot s, 0 ≤ s < open[root], by descending from the root:
// the slots at u are those of each explored child subtree in port order,
// then u's own unclaimed edges.
func (o *slotOracle) locate(v View, s int) (tree.NodeID, error) {
	u := tree.Root
	for {
		own := v.Unclaimed(u)
		sChild := int(o.open[u]) - own
		if s >= sChild {
			if s-sChild >= own {
				return tree.Nil, fmt.Errorf("slot overflow at node %d: %d ≥ %d", u, s-sChild, own)
			}
			return u, nil
		}
		next := tree.Nil
		for _, c := range v.e.t.Children(u) {
			if !v.Explored(c) {
				continue
			}
			if w := int(o.open[c]); s >= w {
				s -= w
				continue
			}
			next = c
			break
		}
		if next == tree.Nil {
			return tree.Nil, fmt.Errorf("inconsistent open counts at node %d", u)
		}
		u = next
	}
}

// checkedPotential runs Potential and checks, at every decision, that the
// slot index agrees with the oracle on the total and on the slot's node.
type checkedPotential struct {
	*Potential
	oracle    slotOracle
	decisions int
}

// OnExplored starts the oracle afresh at the root, which every run
// announces first.
func (c *checkedPotential) OnExplored(v View, parent, child tree.NodeID, open bool) {
	if parent == tree.Nil {
		c.oracle.reset(v.e.t.N())
	}
	c.Potential.OnExplored(v, parent, child, open)
	c.oracle.addPath(v, child, int32(v.Unclaimed(child)))
}

func (c *checkedPotential) Decide(v View, i int) (Move, error) {
	c.decisions++
	m := int(c.oracle.open[tree.Root])
	if got := int(c.slots.total); got != m {
		return Move{}, fmt.Errorf("index total %d, oracle open(root) %d", got, m)
	}
	if m > 0 {
		s := i * m / c.k
		want, err := c.oracle.locate(v, s)
		if err != nil {
			return Move{}, err
		}
		if got := c.slots.find(s); got != want {
			return Move{}, fmt.Errorf("slot %d of %d: index node %d, oracle node %d", s, m, got, want)
		}
	}
	mv, err := c.Potential.Decide(v, i)
	if err == nil && mv.Kind == Claim {
		c.oracle.addPath(v, v.Pos(i), -1)
	}
	return mv, err
}

// TestSlotIndexMatchesOracle checks the slot index against the root-descent
// oracle at every decision of full runs over four tree families, three
// fleets and three latency models, and checks that the checked runs produce
// the same Results as plain ones.
func TestSlotIndexMatchesOracle(t *testing.T) {
	families := []tree.Family{tree.FamilyRandom, tree.FamilyComb, tree.FamilySpider, tree.FamilyBinary}
	fleets := [][]float64{{1}, {1, 1, 2, 4}, {1, 2, 3, 5, 8, 1, 1, 2, 0.5, 3, 1, 4, 2, 1, 1, 6}}
	lats := []string{"constant", "jitter:0.5", "pareto:2.5"}
	for fi, f := range families {
		for _, n := range []int{150, 1200} {
			tr, err := tree.Generate(f, n, 12, rand.New(rand.NewSource(int64(17*fi+n))))
			if err != nil {
				t.Fatal(err)
			}
			for si, speeds := range fleets {
				for li, spec := range lats {
					lat, err := ParseLatency(spec)
					if err != nil {
						t.Fatal(err)
					}
					seed := int64(10*si + li + 1)
					checked := &checkedPotential{Potential: NewPotential()}
					e, err := NewEngine(tr, speeds, WithAlgorithm(checked), WithLatency(lat), WithSeed(seed))
					if err != nil {
						t.Fatal(err)
					}
					got, err := e.Run(0)
					if err != nil {
						t.Fatalf("%s n=%d k=%d %s: %v", f, n, len(speeds), spec, err)
					}
					e, err = NewEngine(tr, speeds, WithAlgorithm(NewPotential()), WithLatency(lat), WithSeed(seed))
					if err != nil {
						t.Fatal(err)
					}
					want, err := e.Run(0)
					if err != nil {
						t.Fatal(err)
					}
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Errorf("%s n=%d k=%d %s: checked run %+v, plain run %+v", f, n, len(speeds), spec, got, want)
					}
					if checked.decisions == 0 || !got.FullyExplored {
						t.Errorf("%s n=%d k=%d %s: %d decisions, fully explored %v", f, n, len(speeds), spec, checked.decisions, got.FullyExplored)
					}
				}
			}
		}
	}
}

// FuzzSlotIndex drives a Potential's slot index through the claims and
// discoveries of a run chosen by the fuzzer, with arrivals in any order,
// and after each step compares every slot with a brute-force enumeration.
// shape is a parents array (byte i is the parent of node i+1, reduced into
// range); each op byte either claims at the node of a slot (even) or
// completes one in-flight crossing (odd), its upper bits picking which.
func FuzzSlotIndex(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0}, []byte{0, 0, 0, 1, 3, 5, 2, 1, 1})
	f.Add([]byte{0, 1, 2, 3, 4, 5}, []byte{0, 1, 0, 1, 0, 1, 0, 1})
	f.Add([]byte{0, 0, 1, 1, 2, 2, 3, 3, 4, 4}, []byte{0, 2, 4, 7, 1, 0, 0, 9, 3, 2, 6, 5, 1, 1, 1})
	f.Add([]byte{0, 0, 0, 3, 3, 3, 0, 7, 7}, []byte{4, 2, 0, 255, 3, 1, 128, 17, 1, 2, 1, 8, 1, 1})
	// A 200-node run long enough to split leaf blocks.
	rng := rand.New(rand.NewSource(5))
	shape, ops := make([]byte, 199), make([]byte, 1200)
	rng.Read(shape)
	rng.Read(ops)
	f.Add(shape, ops)
	f.Fuzz(func(t *testing.T, shape, ops []byte) {
		if len(shape) > 200 || len(ops) > 2000 {
			return
		}
		parents := make([]int32, len(shape)+1)
		parents[0] = -1
		for i, b := range shape {
			parents[i+1] = int32(int(b) % (i + 1))
		}
		tr, err := tree.FromParents(parents)
		if err != nil {
			t.Fatal(err)
		}
		e := &Engine{t: tr, explored: make([]bool, tr.N()), claimed: make([]int32, tr.N())}
		v := View{e}
		p := NewPotential()
		p.Reset(1)
		e.explored[tree.Root] = true
		p.OnExplored(v, tree.Nil, tree.Root, tr.NumChildren(tree.Root) > 0)
		var inflight []tree.NodeID
		check := func(step int) {
			var want []tree.NodeID
			var walk func(u tree.NodeID)
			walk = func(u tree.NodeID) {
				for _, c := range tr.Children(u) {
					if e.explored[c] {
						walk(c)
					}
				}
				for j := 0; j < v.Unclaimed(u); j++ {
					want = append(want, u)
				}
			}
			walk(tree.Root)
			if int(p.slots.total) != len(want) {
				t.Fatalf("step %d: index total %d, want %d", step, p.slots.total, len(want))
			}
			for s, u := range want {
				if got := p.slots.find(s); got != u {
					t.Fatalf("step %d: slot %d at node %d, want %d", step, s, got, u)
				}
			}
		}
		check(-1)
		for step, op := range ops {
			pick := int(op >> 1)
			if op&1 == 0 {
				if p.slots.total == 0 {
					continue
				}
				u := p.slots.find(pick % int(p.slots.total))
				p.slots.takeFound()
				inflight = append(inflight, tr.Children(u)[e.claimed[u]])
				e.claimed[u]++
			} else {
				if len(inflight) == 0 {
					continue
				}
				j := pick % len(inflight)
				c := inflight[j]
				inflight = append(inflight[:j], inflight[j+1:]...)
				e.explored[c] = true
				p.OnExplored(v, tr.Parent(c), c, tr.NumChildren(c) > 0)
			}
			check(step)
		}
	})
}
