package sim

// Hierarchical batched timer wheel.
//
// The fire heap (Engine.heap) stays the ordering authority: events are
// only ever executed off it, in (time, seq) order. The wheel is a
// staging store in front of it for the dense near-future timer
// population — retransmit timers, credit refreshes, link-delay
// deliveries — where scheduling is an O(1) bucket append instead of an
// O(log n) sift, and a cancelled timer is discarded for free when its
// bucket pours instead of churning through the heap.
//
//   - level 0: 256 slots of 8 us each (2 ms span), one slot per tick;
//   - level 1: 64 windows of 256 ticks each (131 ms horizon); a window
//     cascades into level 0 when the cursor enters it;
//   - beyond the horizon: a second index heap (Engine.far), since a
//     sparse far future is exactly what heaps are good at.
//
// The cursor names the next unpoured tick. Invariants: every fire-heap
// event has tick < cursor; every wheel event has cursor <= tick <
// horizon; every far event has tick >= horizon, where horizon is the
// end of the cursor's 64-window level-1 span. Pouring a slot moves one
// tick's batch into the fire heap, so events that transited a bucket
// fire in exactly the (time, seq) order a pure heap would have used —
// the engine's determinism contract is unchanged.
const (
	wheelTickUS  = 8.0 // level-0 granularity, microseconds per tick
	wheelL0Bits  = 8
	wheelL0Slots = 1 << wheelL0Bits // 256 ticks per level-1 window
	wheelL0Mask  = wheelL0Slots - 1
	wheelL1Slots = 64 // level-1 windows within the horizon
)

// wheel is the two-level bucket store. Slot slices keep their backing
// arrays across pours, so steady-state bucket traffic allocates nothing.
type wheel struct {
	cursor int64 // next tick to pour; ticks below live in the fire heap
	l0     [wheelL0Slots][]int32
	l1     [wheelL1Slots][]int32
	l0n    int // events staged in level 0 (including cancelled)
	l1n    int // events staged in level 1 (including cancelled)
}

// wheelTick maps a time to its level-0 tick.
func wheelTick(t Time) int64 { return int64(float64(t) / wheelTickUS) }

// wheelSlotCap pre-sizes every bucket at construction. All slot
// backings come from one contiguous block (full slice expressions cap
// each at wheelSlotCap, so an overflowing slot reallocates itself
// rather than stomping its neighbor), keeping the steady-state
// schedule/fire path allocation-free from the first event on.
const wheelSlotCap = 8

func (w *wheel) init() {
	backing := make([]int32, (wheelL0Slots+wheelL1Slots)*wheelSlotCap)
	for i := range w.l0 {
		off := i * wheelSlotCap
		w.l0[i] = backing[off : off : off+wheelSlotCap]
	}
	for i := range w.l1 {
		off := (wheelL0Slots + i) * wheelSlotCap
		w.l1[i] = backing[off : off : off+wheelSlotCap]
	}
}

// place routes a freshly scheduled arena slot to the fire heap, a wheel
// bucket, or the far heap, according to its distance from the cursor.
func (e *Engine) place(idx int32, t Time) {
	tick := wheelTick(t)
	w := &e.w
	switch {
	case tick < w.cursor:
		e.heapPush(idx)
	case tick-w.cursor < wheelL0Slots:
		s := int(tick & wheelL0Mask)
		w.l0[s] = append(w.l0[s], idx)
		w.l0n++
		e.events[idx].pos = -1
	case (tick>>wheelL0Bits)-(w.cursor>>wheelL0Bits) < wheelL1Slots:
		s := int((tick >> wheelL0Bits) % wheelL1Slots)
		w.l1[s] = append(w.l1[s], idx)
		w.l1n++
		e.events[idx].pos = -1
	default:
		e.farPush(idx)
	}
}

// prime refills the fire heap until it holds at least one event,
// pouring wheel slots (and migrating far events whose horizon has
// arrived) as needed. It reports false when no events remain anywhere.
func (e *Engine) prime() bool {
	for len(e.heap) == 0 {
		if e.w.l0n == 0 && e.w.l1n == 0 {
			if len(e.far) == 0 {
				return false
			}
			// The wheel is empty: jump the cursor straight to the far
			// heap's earliest tick instead of stepping window by window.
			if c := wheelTick(e.events[e.far[0]].at); c > e.w.cursor {
				e.w.cursor = c
			}
			e.migrateFar()
			continue
		}
		e.pourNext()
	}
	return true
}

// pourNext advances the cursor to the next occupied level-0 slot —
// cascading level-1 windows and migrating far events at each window
// crossing — and pours that slot into the fire heap. It returns early
// (without pouring) if the wheel drains completely first.
func (e *Engine) pourNext() {
	w := &e.w
	for {
		if w.l0n > 0 {
			for s := int(w.cursor & wheelL0Mask); s < wheelL0Slots; s++ {
				if len(w.l0[s]) > 0 {
					w.cursor += int64(s) - (w.cursor & wheelL0Mask)
					e.pourSlot(s)
					w.cursor++
					// Pouring the wrap's last slot also crosses a
					// window boundary: cascade before anyone pours
					// again, or the entered window's level-1 batch
					// would be stranded for a full 64-window lap.
					if w.cursor&wheelL0Mask == 0 {
						e.migrateFar()
						e.cascade()
					}
					return
				}
			}
		}
		// Nothing left before the window boundary: enter the next
		// level-1 window.
		w.cursor = (w.cursor | wheelL0Mask) + 1
		e.migrateFar()
		e.cascade()
		if w.l0n == 0 && w.l1n == 0 {
			return
		}
	}
}

// pourSlot moves one tick's batch into the fire heap. Cancelled events
// are released here — they never touch the heap at all, which is the
// wheel's win on cancellation-heavy retransmit workloads.
func (e *Engine) pourSlot(s int) {
	batch := e.w.l0[s]
	e.w.l0[s] = batch[:0]
	e.w.l0n -= len(batch)
	for _, idx := range batch {
		if e.events[idx].cancel {
			e.release(idx)
			continue
		}
		e.heapPush(idx)
	}
}

// cascade scatters the level-1 window the cursor just entered into
// level-0 slots.
func (e *Engine) cascade() {
	w := &e.w
	if w.l1n == 0 {
		return
	}
	s := int((w.cursor >> wheelL0Bits) % wheelL1Slots)
	batch := w.l1[s]
	if len(batch) == 0 {
		return
	}
	w.l1[s] = batch[:0]
	w.l1n -= len(batch)
	for _, idx := range batch {
		if e.events[idx].cancel {
			e.release(idx)
			continue
		}
		e.place(idx, e.events[idx].at)
	}
}

// migrateFar moves far-heap events whose tick has come within the
// level-1 horizon into the wheel, preserving the invariant that the far
// heap's minimum is later than everything staged in the wheel.
func (e *Engine) migrateFar() {
	w := &e.w
	for len(e.far) > 0 {
		idx := e.far[0]
		if (wheelTick(e.events[idx].at)>>wheelL0Bits)-(w.cursor>>wheelL0Bits) >= wheelL1Slots {
			return
		}
		e.farPop()
		e.place(idx, e.events[idx].at)
	}
}

// farPush inserts an arena slot into the far-future index heap.
func (e *Engine) farPush(idx int32) {
	e.events[idx].pos = -1
	e.far = append(e.far, idx)
	i := len(e.far) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.less(e.far[i], e.far[p]) {
			break
		}
		e.far[i], e.far[p] = e.far[p], e.far[i]
		i = p
	}
}

// farPop removes and returns the far heap's earliest arena slot.
func (e *Engine) farPop() int32 {
	idx := e.far[0]
	n := len(e.far) - 1
	e.far[0] = e.far[n]
	e.far = e.far[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && e.less(e.far[r], e.far[c]) {
			c = r
		}
		if !e.less(e.far[c], e.far[i]) {
			break
		}
		e.far[i], e.far[c] = e.far[c], e.far[i]
		i = c
	}
	return idx
}
