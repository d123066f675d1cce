package core

import (
	"strings"
	"testing"

	"bfdn/internal/snap"
)

// TestRestoreRejectsHugeLengths feeds RestoreState a one-robot checkpoint
// whose length prefix claims 2^40 elements, once per counted record, and
// one whose robot id is 2^40, which would size the team bitset. Each must
// fail at once with an error naming that record. The same buffer with a
// zero there instead restores cleanly, which shows the buffers follow the
// format up to the corrupted value.
func TestRestoreRejectsHugeLengths(t *testing.T) {
	const huge = 1 << 40
	robot := func(e *snap.Encoder) { // header, robot 0 up to its BF stack
		e.Ints([]int{0})
		e.Int32(0)
		e.Int(0)
		e.Bool(true)
		e.Int32(0)
		e.Int(0)
	}
	stats := func(e *snap.Encoder) { // empty stack, rest of robot 0, stats
		robot(e)
		e.Int(0)
		e.Int(0)
		e.Int(0)
		e.Bool(false)
		e.Ints(nil)
	}
	index := func(e *snap.Encoder) { // empty log, index up to its buckets
		stats(e)
		e.Int(0)
		e.Int(0)
		e.Int(0)
		e.Int32s(nil)
		e.Int32s(nil)
	}
	for _, tc := range []struct {
		name, want string
		write      func(e *snap.Encoder)
	}{
		{"robot id", "not in the instance's team", func(e *snap.Encoder) { e.Ints([]int{huge}) }},
		{"BF stack", "BF stack", func(e *snap.Encoder) { robot(e); e.Int(huge) }},
		{"excursion log", "excursion log", func(e *snap.Encoder) { stats(e); e.Int(huge) }},
		{"bucket count", "bucket count", func(e *snap.Encoder) { index(e); e.Int(huge) }},
		{"bucket members", "index bucket:", func(e *snap.Encoder) { index(e); e.Int(1); e.Int(huge) }},
		{"bucket heap", "index heap", func(e *snap.Encoder) { index(e); e.Int(1); e.Int(0); e.Int(huge) }},
		{"control", "", func(e *snap.Encoder) { index(e); e.Int(0) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var e snap.Encoder
			tc.write(&e)
			d := snap.NewDecoder(e.Bytes())
			err := NewAlgorithm(1).RestoreState(d)
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
