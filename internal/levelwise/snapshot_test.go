package levelwise

import (
	"strings"
	"testing"

	"bfdn/internal/snap"
)

// TestRestoreRejectsHugeLengths feeds RestoreState a checkpoint whose
// length prefix claims 2^40 elements, once per counted record. Each must
// fail at once with an error naming that record; before the prefixes were
// checked against the bytes left, the plan case looped for hours.
func TestRestoreRejectsHugeLengths(t *testing.T) {
	const huge = 1 << 40
	for _, tc := range []struct {
		name, want string
		write      func(e *snap.Encoder)
	}{
		{"open list", "open-list length", func(e *snap.Encoder) {
			e.Int(1)
			e.Bool(true)
			e.Int(0)
			e.Int(huge)
		}},
		{"plan", "plan for robot 0", func(e *snap.Encoder) {
			e.Int(1)
			e.Bool(true)
			e.Int(0)
			e.Int(0)
			e.Int(huge)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var e snap.Encoder
			tc.write(&e)
			if tc.name == "plan" && len(e.Bytes()) != 10 {
				t.Fatalf("repro buffer is %d bytes, want 10", len(e.Bytes()))
			}
			err := New(1).RestoreState(snap.NewDecoder(e.Bytes()))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("RestoreState = %v, want an error about the %s", err, tc.want)
			}
		})
	}
}
