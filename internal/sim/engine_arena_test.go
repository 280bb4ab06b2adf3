package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refEvent / refQueue reimplement the engine's former pointer-based
// event queue: a container/heap of *refEvent ordered by (time, seq).
// The property tests below drive it and the arena engine with identical
// random scripts and require identical observable behaviour.
type refEvent struct {
	at     Time
	seq    uint64
	id     int
	cancel bool
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

// refEngine is the oracle: schedule, cancel, and fire semantics of the
// pre-arena engine, tracking fired event ids in order.
type refEngine struct {
	now   Time
	seq   uint64
	queue refQueue
	fired []int
}

func (r *refEngine) schedule(d Duration, id int) *refEvent {
	if d < 0 {
		d = 0
	}
	t := r.now.Add(d)
	if t < r.now {
		t = r.now
	}
	ev := &refEvent{at: t, seq: r.seq, id: id}
	r.seq++
	heap.Push(&r.queue, ev)
	return ev
}

func (r *refEngine) step() bool {
	for len(r.queue) > 0 {
		ev := heap.Pop(&r.queue).(*refEvent)
		if ev.cancel {
			continue
		}
		r.now = ev.at
		r.fired = append(r.fired, ev.id)
		return true
	}
	return false
}

// runBefore fires every live event strictly before t and reports how
// many fired, leaving the clock at the last one, as Engine.RunBefore does.
func (r *refEngine) runBefore(t Time) int {
	ran := 0
	for len(r.queue) > 0 {
		ev := r.queue[0]
		if ev.cancel {
			heap.Pop(&r.queue)
			continue
		}
		if ev.at >= t {
			break
		}
		heap.Pop(&r.queue)
		r.now = ev.at
		r.fired = append(r.fired, ev.id)
		ran++
	}
	return ran
}

// TestPropertyArenaMatchesReferenceHeap drives the arena engine and the
// reference container/heap implementation with the same random script of
// schedules, cancels, steps, and bounded runs, and requires the fired
// event order, clock, and pending counts to agree at every step.
func TestPropertyArenaMatchesReferenceHeap(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		e := New()
		ref := &refEngine{}
		var fired []int
		nextID := 0

		// Live handles eligible for cancellation, kept in lockstep.
		type pending struct {
			h  Handle
			rv *refEvent
		}
		var live []pending

		for op := 0; op < 400; op++ {
			switch k := rng.Intn(10); {
			case k < 4: // schedule
				d := Duration(rng.Intn(50) - 5) // sometimes negative
				id := nextID
				nextID++
				h := e.Schedule(d, func() { fired = append(fired, id) })
				rv := ref.schedule(d, id)
				if h.When() != rv.at {
					t.Fatalf("trial %d op %d: When()=%v, reference at=%v", trial, op, h.When(), rv.at)
				}
				live = append(live, pending{h, rv})
			case k < 6: // cancel a random live handle (possibly stale)
				if len(live) == 0 {
					continue
				}
				i := rng.Intn(len(live))
				live[i].h.Cancel()
				live[i].rv.cancel = true
			case k < 8: // step once
				got := e.Step()
				want := ref.step()
				if got != want {
					t.Fatalf("trial %d op %d: Step()=%v, reference %v", trial, op, got, want)
				}
			default: // run up to a nearby bound
				target := e.Now().Add(Duration(rng.Intn(60)))
				if got, want := e.RunBefore(target), ref.runBefore(target); got != want {
					t.Fatalf("trial %d op %d: RunBefore ran %d, reference %d", trial, op, got, want)
				}
			}
			if e.Now() != ref.now {
				t.Fatalf("trial %d op %d: clock %v, reference %v", trial, op, e.Now(), ref.now)
			}
		}

		// Drain both and compare the complete firing order.
		e.Run()
		for ref.step() {
		}
		if e.Now() != ref.now {
			t.Fatalf("trial %d: final clock %v, reference %v", trial, e.Now(), ref.now)
		}
		if len(fired) != len(ref.fired) {
			t.Fatalf("trial %d: fired %d events, reference fired %d", trial, len(fired), len(ref.fired))
		}
		for i := range fired {
			if fired[i] != ref.fired[i] {
				t.Fatalf("trial %d: firing order diverges at %d: %d vs %d", trial, i, fired[i], ref.fired[i])
			}
		}
	}
}

// TestPropertyArenaNestedScheduling mixes callbacks that schedule more
// work mid-run — the case where the arena may grow while a callback
// runs — and checks order against the reference.
func TestPropertyArenaNestedScheduling(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		e := New()
		ref := &refEngine{}
		var fired []int
		nextID := 0

		// Each root event schedules a random burst of children when it
		// fires. The reference cannot run callbacks, so replay the same
		// burst decisions from a script generated up front.
		type burst struct{ delays []Duration }
		bursts := make([]burst, 40)
		for i := range bursts {
			b := burst{delays: make([]Duration, rng.Intn(4))}
			for j := range b.delays {
				b.delays[j] = Duration(rng.Intn(20))
			}
			bursts[i] = b
		}

		var schedule func(d Duration, depth int) int
		schedule = func(d Duration, depth int) int {
			id := nextID
			nextID++
			b := bursts[id%len(bursts)]
			e.Schedule(d, func() {
				fired = append(fired, id)
				if depth < 2 {
					for _, cd := range b.delays {
						schedule(cd, depth+1)
					}
				}
			})
			return id
		}

		// Mirror on the reference engine: it cannot run callbacks, so
		// its fire loop expands the same burst table whenever an event
		// fires, assigning child ids in the same order the arena's
		// callbacks do.
		refNext := 0
		depths := map[int]int{}
		refSchedule := func(d Duration, depth int) {
			ref.schedule(d, refNext)
			depths[refNext] = depth
			refNext++
		}
		refRun := func() {
			for {
				before := len(ref.fired)
				if !ref.step() {
					break
				}
				id := ref.fired[before]
				if d := depths[id]; d < 2 {
					for _, cd := range bursts[id%len(bursts)].delays {
						refSchedule(cd, d+1)
					}
				}
			}
		}

		roots := 1 + rng.Intn(6)
		for i := 0; i < roots; i++ {
			d := Duration(rng.Intn(30))
			schedule(d, 0)
			refSchedule(d, 0)
		}
		e.Run()
		refRun()

		if len(fired) != len(ref.fired) {
			t.Fatalf("trial %d: fired %d events, reference fired %d", trial, len(fired), len(ref.fired))
		}
		for i := range fired {
			if fired[i] != ref.fired[i] {
				t.Fatalf("trial %d: firing order diverges at %d: %d vs %d", trial, i, fired[i], ref.fired[i])
			}
		}
		if e.Now() != ref.now {
			t.Fatalf("trial %d: final clock %v, reference %v", trial, e.Now(), ref.now)
		}
	}
}
