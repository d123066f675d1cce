package bfdn

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"bfdn/internal/sim"
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

// TestExploreMatchesCallerLabels pins that Explore's BFS layout of
// label-free runs (DESIGN.md S34) is invisible: for every algorithm, the
// report equals that of a run on the caller's tree as given, so an
// algorithm that reads NodeIDs (BFDN_ℓ, level-wise) must not be laid out.
// Seed 3 is kept for its random binary tree, on which a laid-out
// level-wise run at k = 5 differs.
func TestExploreMatchesCallerLabels(t *testing.T) {
	for _, f := range []Family{FamilyRandom, FamilyRandomBin, FamilyComb, FamilySpider, FamilyCaterpillar, FamilyUneven} {
		for seed := int64(1); seed <= 3; seed++ {
			tr, err := GenerateTree(f, 300, 12, seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range Algorithms() {
				for _, k := range []int{1, 5, 16, 64} {
					got, err := Explore(tr, k, WithAlgorithm(a))
					if err != nil {
						t.Fatal(err)
					}
					cfg := defaultConfig()
					cfg.alg = a
					alg, bound, err := newSimAlgorithm(tr, k, cfg)
					if err != nil {
						t.Fatal(err)
					}
					w, err := sim.NewWorld(tr.t, k)
					if err != nil {
						t.Fatal(err)
					}
					res, err := sim.Run(w, alg, 0)
					if err != nil {
						t.Fatal(err)
					}
					want := simReport(tr, k, res, bound)
					gb, _ := json.Marshal(got)
					wb, _ := json.Marshal(want)
					if !bytes.Equal(gb, wb) {
						t.Errorf("%s k=%d on %s seed %d:\n got %s\nwant %s", a, k, tr, seed, gb, wb)
					}
				}
			}
		}
	}
}

// TestExploreDropsCallerTree pins the memory side of the layout (DESIGN.md
// S34): once a label-free run has its BFS copy, the caller's tree is no
// longer reachable from the run, so a caller that drops its own reference
// (as bfdnd's explore handler does) holds one tree during the run, not two.
// The caller's tree carries a finalizer, and the run's progress observer
// collects garbage until the finalizer has run or two seconds have passed.
func TestExploreDropsCallerTree(t *testing.T) {
	var freed atomic.Bool
	tr, err := GenerateTree(FamilyRandom, 20_000, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	runtime.SetFinalizer(tr.t, func(*tree.Tree) { freed.Store(true) })
	sawFreed := false
	_, err = ExploreContext(context.Background(), tr, 16, WithProgress(func(p Progress) {
		if p.Round != 10 {
			return
		}
		for deadline := time.Now().Add(2 * time.Second); !freed.Load() && time.Now().Before(deadline); {
			runtime.GC()
			time.Sleep(10 * time.Millisecond)
		}
		sawFreed = freed.Load()
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !sawFreed {
		t.Error("the caller's tree stayed reachable during a BFDN run on its layout")
	}
}
