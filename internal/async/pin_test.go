package async

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"bfdn/internal/tree"
)

// resultPins is the SHA-256 of each algorithm's JSON Results over the
// TestResultPins grid, in loop order. TestDeterminismEventSequence compares a
// build with itself; these pins catch a change in either algorithm's
// decisions (anchor choice, claim order, tie-breaking) against the
// recorded behaviour.
var resultPins = map[string]string{
	"bfdn":      "7016a0a1f6fc73ddde411584ecfad7968bcfd806a4789278d984632982924ba0",
	"potential": "8ebb88922836a6aad6188b22c1274ac3a14dce50b4a1aeaf7509e81e8776a350",
}

// TestResultPins runs every algorithm over 4 families × 2 sizes × 3 fleets
// × 3 latency models and compares the hash of the Results with its pin.
func TestResultPins(t *testing.T) {
	families := []tree.Family{tree.FamilyRandom, tree.FamilyComb, tree.FamilySpider, tree.FamilyBinary}
	fleets := [][]float64{{1}, {1, 1, 2, 4}, {1, 2, 3, 5, 8, 1, 1, 2, 0.5, 3, 1, 4}}
	lats := []string{"constant", "jitter:0.5", "pareto:2.5"}
	for _, name := range AlgorithmNames() {
		t.Run(name, func(t *testing.T) {
			alg, err := NewNamedAlgorithm(name)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			var e *Engine
			for fi, f := range families {
				for _, n := range []int{200, 3000} {
					tr, err := tree.Generate(f, n, 14, rand.New(rand.NewSource(int64(31*fi+n))))
					if err != nil {
						t.Fatal(err)
					}
					for si, speeds := range fleets {
						for li, spec := range lats {
							lat, err := ParseLatency(spec)
							if err != nil {
								t.Fatal(err)
							}
							seed := int64(100*si + li + 1)
							if e == nil {
								e, err = NewEngine(tr, speeds, WithAlgorithm(alg), WithLatency(lat), WithSeed(seed))
							} else {
								e.Rebind(nil, lat)
								err = e.Reset(tr, speeds, seed)
							}
							if err != nil {
								t.Fatal(err)
							}
							res, err := e.Run(0)
							if err != nil {
								t.Fatalf("%s n=%d k=%d %s: %v", f, n, len(speeds), spec, err)
							}
							line, err := json.Marshal(res)
							if err != nil {
								t.Fatal(err)
							}
							fmt.Fprintf(h, "%s\n", line)
						}
					}
				}
			}
			if got, want := hex.EncodeToString(h.Sum(nil)), resultPins[name]; got != want {
				t.Errorf("SHA-256 of the Results = %s, want %s", got, want)
			}
		})
	}
}
