package recursive

import (
	"strings"
	"testing"

	"bfdn/internal/snap"
)

// TestRestoreRejectsCorruptCheckpoint feeds RestoreState BFDN_2 (k=4)
// checkpoints with one corrupt value each: a travel plan whose length
// prefix is 2^40, which asked make for a 2^40-element path; a negative
// phase index, which made the base step a negative shift; a divide-depth
// level above ℓ, which sized a loop; and a team robot id of 2^40, which
// sized the core instance's team bitset. Each must fail at once with an
// error, and the same checkpoint without the corruption must restore.
func TestRestoreRejectsCorruptCheckpoint(t *testing.T) {
	const huge = 1 << 40
	write := func(phase, level, robot, pathLen int) []byte {
		var e snap.Encoder
		e.Int(4)     // k
		e.Int(2)     // ℓ
		e.Int(phase) // phase index: base step 1
		e.Bool(false)
		e.Bool(false)
		e.Uint64(uint64(tagDivide))
		e.Int(level)
		e.Int(1) // k*
		e.Int(1) // s
		e.Ints([]int{robot})
		e.Int32(0) // root
		e.Int(1)   // iteration
		e.Int(0)   // phase
		e.Bool(false)
		e.Bool(true)
		e.Int(0) // children
		e.Int(1) // travel plans
		e.Int(robot)
		e.Int(pathLen)
		if pathLen == 1 {
			e.Int32(0) // the one-node path
		}
		return e.Bytes()
	}
	for _, tc := range []struct {
		name, want string
		buf        []byte
	}{
		{"travel plan", "travel plan", write(0, 2, 0, huge)},
		{"phase index", "phase index", write(-1, 2, 0, 1)},
		{"level", "divide-depth node header", write(0, 3, 0, 1)},
		{"team", "divide-depth node header", write(0, 2, huge, 1)},
		{"control", "", write(0, 2, 0, 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, err := NewBFDNL(4, 2)
			if err != nil {
				t.Fatal(err)
			}
			d := snap.NewDecoder(tc.buf)
			err = b.RestoreState(d)
			if tc.want == "" {
				if err != nil || d.Rest() != 0 {
					t.Fatalf("RestoreState = %v with %d bytes left, want a clean restore", err, d.Rest())
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("RestoreState = %v, want an error about the %s", err, tc.want)
			}
		})
	}
}
