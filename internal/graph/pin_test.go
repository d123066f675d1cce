package graph

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
)

// resultPins is the SHA-256 of the explorer's JSON GResults per graph
// source, over 30 seeds × k ∈ {1, 3, 8, 32}. TestExplorerDeterministic
// compares a build with itself; these pins catch a change in the explorer's
// decisions (anchor choice, load tie-breaking) against the recorded
// behaviour.
var resultPins = map[string]string{
	"RandomGrid":      "78302f7b420907324207be7471c69d6cde55951db94e3aff0b3b294cbb870809",
	"RandomConnected": "9bb17d6fe8cb2485ddd6f08e791f7eede2599cb1fd377fff1c690670a5f169d0",
}

// TestResultPins explores random grids and random connected graphs and
// compares the hash of the GResults with its pin.
func TestResultPins(t *testing.T) {
	sources := []struct {
		name string
		make func(rng *rand.Rand) (*Graph, error)
	}{
		{"RandomGrid", func(rng *rand.Rand) (*Graph, error) {
			gd, err := RandomGrid(16, 12, 6, 4, rng)
			if err != nil {
				return nil, err
			}
			return gd.G, nil
		}},
		{"RandomConnected", func(rng *rand.Rand) (*Graph, error) { return RandomConnected(300, 900, rng) }},
	}
	for _, src := range sources {
		t.Run(src.name, func(t *testing.T) {
			h := sha256.New()
			for seed := int64(1); seed <= 30; seed++ {
				g, err := src.make(rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range []int{1, 3, 8, 32} {
					e, err := NewExplorer(g, k)
					if err != nil {
						t.Fatal(err)
					}
					res, err := e.Run(0)
					if err != nil {
						t.Fatalf("seed %d k=%d: %v", seed, k, err)
					}
					line, err := json.Marshal(res)
					if err != nil {
						t.Fatal(err)
					}
					fmt.Fprintf(h, "%s\n", line)
				}
			}
			if got, want := hex.EncodeToString(h.Sum(nil)), resultPins[src.name]; got != want {
				t.Errorf("SHA-256 of the GResults = %s, want %s", got, want)
			}
		})
	}
}
