package tree

import "testing"

// FuzzFromParents checks that FromParents either rejects its input or
// produces a tree that survives Validate and round-trips through
// Encode/Decode — no panics, no silent corruption.
func FuzzFromParents(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{0, 0, 1, 1, 2})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	f.Fuzz(func(t *testing.T, raw []byte) {
		parents := make([]int32, len(raw)+1)
		parents[0] = -1
		for i, b := range raw {
			parents[i+1] = int32(b)
		}
		tr, err := FromParents(parents)
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("accepted invalid tree: %v", err)
		}
		enc := Encode(tr)
		dec, err := Decode(enc)
		if err != nil {
			t.Fatalf("decode of own encoding: %v", err)
		}
		if Encode(dec) != enc {
			t.Fatal("encode/decode not idempotent")
		}
	})
}

// FuzzDecode checks that Decode never panics and never accepts input that
// fails validation.
func FuzzDecode(f *testing.F) {
	f.Add("-1 0 0 1")
	f.Add("")
	f.Add("-1")
	f.Add("-1 5")
	f.Add("x y z")
	f.Fuzz(func(t *testing.T, s string) {
		tr, err := Decode(s)
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("Decode(%q) produced invalid tree: %v", s, err)
		}
	})
}

// FuzzBFSLayout checks BFSLayout on every tree FromParents accepts: the
// copy validates, its IDs are in BFS order (non-decreasing parents, every
// child range consecutive), it keeps depth, degree and port order node for
// node, and laying it out again changes nothing.
func FuzzBFSLayout(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{0, 0, 1, 1, 2})
	f.Add([]byte{0, 1, 0, 2, 1, 3, 0})
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	f.Fuzz(func(t *testing.T, raw []byte) {
		parents := make([]int32, len(raw)+1)
		parents[0] = -1
		for i, b := range raw {
			parents[i+1] = int32(b)
		}
		tr, err := FromParents(parents)
		if err != nil {
			return
		}
		checkBFSLayout(t, tr)
	})
}

// checkBFSLayout asserts BFSLayout's contract on tr.
func checkBFSLayout(t *testing.T, tr *Tree) {
	t.Helper()
	lay := tr.BFSLayout()
	if err := lay.Validate(); err != nil {
		t.Fatalf("layout of %v does not validate: %v", tr.Parents(), err)
	}
	if lay.N() != tr.N() || lay.Depth() != tr.Depth() || lay.MaxDegree() != tr.MaxDegree() {
		t.Fatalf("layout is %v, source %v", lay, tr)
	}
	for v := 2; v < lay.N(); v++ {
		if lay.Parent(NodeID(v)) < lay.Parent(NodeID(v-1)) {
			t.Fatalf("layout parents decrease at node %d: %v", v, lay.Parents())
		}
	}
	// old[i] is the source node numbered i in the layout: the source's BFS
	// order with children in port order.
	old := []NodeID{Root}
	for i := 0; i < len(old); i++ {
		old = append(old, tr.Children(old[i])...)
	}
	for i, v := range old {
		u := NodeID(i)
		if lay.DepthOf(u) != tr.DepthOf(v) || lay.Degree(u) != tr.Degree(v) {
			t.Fatalf("layout node %d (source %d): depth %d degree %d, source depth %d degree %d",
				u, v, lay.DepthOf(u), lay.Degree(u), tr.DepthOf(v), tr.Degree(v))
		}
		if p := lay.Parent(u); p != Nil && old[p] != tr.Parent(v) {
			t.Fatalf("layout node %d has parent %d (source %d), source parent %d", u, p, old[p], tr.Parent(v))
		}
		kids := lay.Children(u)
		for j, c := range kids {
			if c != kids[0]+NodeID(j) {
				t.Fatalf("layout children of %d not consecutive: %v", u, kids)
			}
			if old[c] != tr.Children(v)[j] {
				t.Fatalf("layout node %d port %d leads to source %d, want %d", u, lay.PortToward(u, c), old[c], tr.Children(v)[j])
			}
		}
	}
	again := lay.BFSLayout().Parents()
	for i, p := range lay.Parents() {
		if again[i] != p {
			t.Fatalf("laying out twice changed parents[%d]: %d → %d", i, p, again[i])
		}
	}
}
