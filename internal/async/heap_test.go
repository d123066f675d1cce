package async

import (
	"math/rand"
	"sort"
	"testing"
)

// timeSeqLess is the reference order, written out independently of
// event.before so a mistake there cannot hide behind itself.
func timeSeqLess(a, b event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// TestEventHeapPopsInTimeSeqOrder interleaves random pushes and pops, with
// most times drawn from a handful of values so ties on at are common, and
// checks that the events come out in (at, seq) order: each pop returns the
// least pending event, and the whole pop sequence equals a sort of the
// pushed events.
func TestEventHeapPopsInTimeSeqOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 200; trial++ {
		var h eventHeap
		var pending, pushed, popped []event
		seq := int64(0)
		now := 0.0
		pop := func() {
			got := h.pop()
			least := 0
			for i, ev := range pending {
				if timeSeqLess(ev, pending[least]) {
					least = i
				}
			}
			if got != pending[least] {
				t.Fatalf("trial %d: pop = %+v, want least pending %+v", trial, got, pending[least])
			}
			pending = append(pending[:least], pending[least+1:]...)
			popped = append(popped, got)
			now = got.at
		}
		steps := 1 + rng.Intn(400)
		for s := 0; s < steps; s++ {
			if len(h) > 0 && rng.Intn(3) == 0 {
				pop()
				continue
			}
			// Events are never scheduled before the clock, as in the
			// engine; a third land exactly on it and the rest on a coarse
			// grid above it, so equal at values are the common case.
			at := now
			if rng.Intn(3) != 0 {
				at += float64(rng.Intn(4)) * 0.5
			}
			ev := event{at: at, robot: rng.Intn(8), seq: seq}
			seq++
			h.push(ev)
			pending = append(pending, ev)
			pushed = append(pushed, ev)
		}
		for len(h) > 0 {
			pop()
		}
		if len(pending) != 0 {
			t.Fatalf("trial %d: heap drained with %d events still pending", trial, len(pending))
		}
		sort.Slice(pushed, func(i, j int) bool { return timeSeqLess(pushed[i], pushed[j]) })
		for i := range pushed {
			if popped[i] != pushed[i] {
				t.Fatalf("trial %d: pop %d = %+v, sorted order has %+v", trial, i, popped[i], pushed[i])
			}
		}
	}
}
