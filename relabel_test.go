package bfdn

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"bfdn/internal/tree"
)

// relabel renumbers t in BFS preorder (bfs) or DFS preorder, visiting
// children in port order. Siblings keep their relative order, so the result
// is the same tree with the same port numbering; only the node IDs change.
func relabel(t *testing.T, tr *Tree, bfs bool) *Tree {
	t.Helper()
	old := tr.t
	newID := make([]int32, old.N())
	order := make([]tree.NodeID, 0, old.N())
	if bfs {
		order = append(order, tree.Root)
		for i := 0; i < len(order); i++ {
			order = append(order, old.Children(order[i])...)
		}
	} else {
		stack := []tree.NodeID{tree.Root}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			order = append(order, v)
			kids := old.Children(v)
			for i := len(kids) - 1; i >= 0; i-- {
				stack = append(stack, kids[i])
			}
		}
	}
	for i, v := range order {
		newID[v] = int32(i)
	}
	parents := make([]int32, old.N())
	parents[0] = -1
	for i, v := range order[1:] {
		parents[i+1] = newID[old.Parent(v)]
	}
	out, err := NewTree(parents)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestReportsInvariantUnderRelabel runs each algorithm that decides from the
// tree's shape and port order alone on a tree and on its BFS- and
// DFS-preorder relabellings, and requires byte-identical JSON reports: node
// IDs are storage, not part of the model, so renumbering the nodes (as a
// cache-friendlier layout would) must not change a run. BFDN_ℓ and
// level-wise are left out: they break ties on NodeID, so their runs do
// depend on the labels.
func TestReportsInvariantUnderRelabel(t *testing.T) {
	var trees []*Tree
	for _, f := range []Family{FamilyRandom, FamilyRandomBin, FamilyComb, FamilySpider, FamilyCaterpillar, FamilyUneven} {
		for seed := int64(1); seed <= 2; seed++ {
			tr, err := GenerateTree(f, 300, 12, seed)
			if err != nil {
				t.Fatal(err)
			}
			trees = append(trees, tr)
		}
	}
	type run struct {
		name string
		do   func(*Tree) (any, error)
	}
	var runs []run
	for _, a := range []Algorithm{BFDN, CTE, DFS, TreeMining, Potential} {
		for _, k := range []int{1, 5, 16, 64} {
			runs = append(runs, run{fmt.Sprintf("%s/k=%d", a, k), func(tr *Tree) (any, error) {
				return Explore(tr, k, WithAlgorithm(a))
			}})
		}
	}
	for _, a := range AsyncAlgorithms() {
		for _, lat := range []string{"constant", "jitter:0.5"} {
			runs = append(runs, run{fmt.Sprintf("async %s/%s", a, lat), func(tr *Tree) (any, error) {
				return ExploreAsync(tr, []float64{1, 1, 2, 4}, WithAsyncAlgorithm(a), WithLatencyModel(lat), WithAsyncSeed(3))
			}})
		}
	}
	report := func(r run, tr *Tree) []byte {
		t.Helper()
		rep, err := r.do(tr)
		if err != nil {
			t.Fatalf("%s on %s: %v", r.name, tr, err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, tr := range trees {
		bfs, dfs := relabel(t, tr, true), relabel(t, tr, false)
		for _, r := range runs {
			want := report(r, tr)
			for _, re := range []struct {
				order string
				t     *Tree
			}{{"BFS", bfs}, {"DFS", dfs}} {
				if got := report(r, re.t); !bytes.Equal(got, want) {
					t.Errorf("%s on %s, %s-relabelled:\n got %s\nwant %s", r.name, tr, re.order, got, want)
				}
			}
		}
	}
}
