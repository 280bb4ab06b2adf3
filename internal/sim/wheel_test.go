package sim

import (
	"container/heap"
	"math/rand"
	"testing"
	"testing/quick"
)

// wheelRefHeap is an independent (time, seq) min-heap used as the
// ordering oracle for the timer wheel. It mirrors refHeap in
// engine_arena_test.go but lives with the wheel tests so they stay
// self-contained.
type wheelRefEvent struct {
	at        Time
	seq       int
	id        int
	cancelled bool
}

type wheelRefHeap []*wheelRefEvent

func (h wheelRefHeap) Len() int { return len(h) }
func (h wheelRefHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h wheelRefHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *wheelRefHeap) Push(x any)   { *h = append(*h, x.(*wheelRefEvent)) }
func (h *wheelRefHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// TestPropertyWheelMatchesReferenceAcrossHorizons drives the engine and
// a reference heap with identical random scripts whose delays span all
// three stores — the near fire heap, both wheel levels, and the
// far-future heap beyond the ~131 ms horizon — including exact-tie
// times and cancellations. Fire order must match the oracle exactly.
func TestPropertyWheelMatchesReferenceAcrossHorizons(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		var ref wheelRefHeap
		refSeq := 0
		var engFired, refFired []int
		id := 0
		var handles []Handle
		var refEvents []*wheelRefEvent
		total := int(n)%96 + 16

		schedule := func() {
			// Mix horizons: same-tick ties, level 0, level 1, and far
			// (past the 131 ms horizon), plus occasional exact repeats
			// of the previous delay to force (at, seq) tie-breaks.
			var d Duration
			switch rng.Intn(5) {
			case 0:
				d = Duration(rng.Intn(8)) // same-tick ties
			case 1:
				d = Duration(rng.Intn(2048)) // level 0
			case 2:
				d = Duration(rng.Intn(131072)) // level 1 span
			case 3:
				d = Duration(131072 + rng.Intn(10_000_000)) // far heap
			case 4:
				if len(refEvents) > 0 {
					prev := refEvents[len(refEvents)-1]
					d = Duration(float64(prev.at) - float64(e.Now()))
					if d < 0 {
						d = 0
					}
				}
			}
			myID := id
			id++
			handles = append(handles, e.Schedule(d, func() { engFired = append(engFired, myID) }))
			at := e.Now().Add(d)
			rev := &wheelRefEvent{at: at, seq: refSeq, id: myID}
			refSeq++
			refEvents = append(refEvents, rev)
			heap.Push(&ref, rev)
		}
		refStep := func() bool {
			for ref.Len() > 0 {
				ev := heap.Pop(&ref).(*wheelRefEvent)
				if ev.cancelled {
					continue
				}
				refFired = append(refFired, ev.id)
				return true
			}
			return false
		}

		for i := 0; i < total; i++ {
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4, 5:
				schedule()
			case 6:
				if len(handles) > 0 {
					k := rng.Intn(len(handles))
					handles[k].Cancel()
					refEvents[k].cancelled = true
				}
			case 7, 8:
				if e.Step() {
					if !refStep() {
						return false
					}
				}
			case 9:
				// RunBefore a random bound; oracle fires strictly-before
				// events in order.
				bound := e.Now().Add(Duration(rng.Intn(200_000)))
				e.RunBefore(bound)
				for ref.Len() > 0 {
					top := ref[0]
					if top.cancelled {
						heap.Pop(&ref)
						continue
					}
					if top.at >= bound {
						break
					}
					refStep()
				}
			}
		}
		for e.Step() {
			if !refStep() {
				return false
			}
		}
		if refStep() {
			return false
		}
		if len(engFired) != len(refFired) {
			return false
		}
		for i := range engFired {
			if engFired[i] != refFired[i] {
				return false
			}
		}
		return e.Pending() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestWheelNextEventAt pins NextEventAt semantics: it reports the
// earliest live event without firing it, discards cancelled fronts, and
// goes empty-false only when nothing remains.
func TestWheelNextEventAt(t *testing.T) {
	e := New()
	if _, ok := e.NextEventAt(); ok {
		t.Fatal("empty engine reported a next event")
	}
	h1 := e.Schedule(100, func() {})
	e.Schedule(500_000, func() {}) // far heap
	if at, ok := e.NextEventAt(); !ok || at != 100 {
		t.Fatalf("NextEventAt = %v, %v; want 100, true", at, ok)
	}
	if e.Now() != 0 {
		t.Fatalf("NextEventAt advanced the clock to %v", e.Now())
	}
	h1.Cancel()
	if at, ok := e.NextEventAt(); !ok || at != 500_000 {
		t.Fatalf("NextEventAt after cancel = %v, %v; want 500000, true", at, ok)
	}
	e.Run()
	if _, ok := e.NextEventAt(); ok {
		t.Fatal("drained engine reported a next event")
	}
}

// TestWheelRunBeforeExcludesBound pins the strict inequality: an event
// exactly at the bound stays pending, and the clock does not jump to
// the bound.
func TestWheelRunBeforeExcludesBound(t *testing.T) {
	e := New()
	var fired []Time
	e.Schedule(10, func() { fired = append(fired, e.Now()) })
	e.Schedule(20, func() { fired = append(fired, e.Now()) })
	e.Schedule(30, func() { fired = append(fired, e.Now()) })
	if ran := e.RunBefore(20); ran != 1 {
		t.Fatalf("RunBefore(20) ran %d events, want 1", ran)
	}
	if e.Now() != 10 {
		t.Fatalf("clock at %v after RunBefore(20), want 10 (no jump to bound)", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("%d pending after RunBefore, want 2", e.Pending())
	}
	e.Run()
	if len(fired) != 3 || fired[2] != 30 {
		t.Fatalf("fired = %v", fired)
	}
}

// TestWheelResetDrainsAllStores schedules into every store and checks
// Reset recycles all of it.
func TestWheelResetDrainsAllStores(t *testing.T) {
	e := New()
	e.Schedule(1, func() {})          // level 0
	e.Schedule(50_000, func() {})     // level 1
	e.Schedule(10_000_000, func() {}) // far heap
	e.Step()                          // pour + fire one, leaving stores warm
	e.Schedule(2, func() {})
	if e.Pending() != 3 {
		t.Fatalf("pending = %d, want 3", e.Pending())
	}
	e.Reset()
	if e.Pending() != 0 || e.Now() != 0 {
		t.Fatalf("after Reset: pending=%d now=%v", e.Pending(), e.Now())
	}
	fired := 0
	e.Schedule(5, func() { fired++ })
	e.Run()
	if fired != 1 {
		t.Fatalf("post-Reset engine fired %d events, want 1", fired)
	}
}

// BenchmarkRetransmitCancelHeavy models the reliable channel's timer
// workload: every frame arms a retransmit timer ~1 RTT out and almost
// all are cancelled by the ACK before firing. The wheel discards a
// cancelled timer for free at pour time (it never enters the fire
// heap), where the plain index heap paid a sift per insert and carried
// the corpse until discard.
func BenchmarkRetransmitCancelHeavy(b *testing.B) {
	e := New()
	const window = 64
	const rto = Duration(900) // ~1 RTT for a 5 KB frame at OC-3
	fn := func() {}
	handles := make([]Handle, 0, window)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < window; j++ {
			handles = append(handles, e.Schedule(rto+Duration(j), fn))
		}
		// ACKs arrive: cancel all but one timer, let the survivor fire.
		for j, h := range handles {
			if j != window/2 {
				h.Cancel()
			}
		}
		handles = handles[:0]
		e.Run()
	}
}
