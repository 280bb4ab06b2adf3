package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// When several racing workers hit failing indices, ForEach must surface
// the lowest-index failure — the one the serial walk would have stopped
// at — no matter which worker reached it first, and must not abandon
// any index before it.
func TestForEachErrorDeterminism(t *testing.T) {
	const n = 64
	for _, workers := range []int{1, 2, 8} {
		for round := 0; round < 20; round++ {
			var ran [n]atomic.Bool
			err := ForEach(n, workers, func(i int) error {
				ran[i].Store(true)
				if i == 17 || i == 40 {
					return fmt.Errorf("cell %d failed", i)
				}
				return nil
			})
			if err == nil || err.Error() != "cell 17 failed" {
				t.Fatalf("workers=%d: err = %v, want the lowest failing index (17)", workers, err)
			}
			for i := 0; i <= 17; i++ {
				if !ran[i].Load() {
					t.Fatalf("workers=%d: index %d before the failure never ran", workers, i)
				}
			}
		}
	}

	// Force the order: the higher failing index finishes last, and the
	// lower one's error must still win.
	for _, workers := range []int{2, 8} {
		started := make(chan struct{})
		err := ForEach(n, workers, func(i int) error {
			switch i {
			case 5:
				<-started
				return errors.New("cell 5 failed")
			case 6:
				close(started)
				time.Sleep(20 * time.Millisecond)
				return errors.New("cell 6 failed")
			}
			return nil
		})
		if err == nil || err.Error() != "cell 5 failed" {
			t.Fatalf("workers=%d: err = %v, want the lowest failing index (5)", workers, err)
		}
	}
}

// One worker is the plain serial loop: indices run in order on the
// caller's goroutine and nothing past the first failure runs.
func TestForEachSerialStopsAtFailure(t *testing.T) {
	var order []int
	wantErr := errors.New("boom")
	err := ForEach(10, 1, func(i int) error {
		order = append(order, i)
		if i == 3 {
			return wantErr
		}
		return nil
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	if fmt.Sprint(order) != "[0 1 2 3]" {
		t.Fatalf("ran %v, want [0 1 2 3]", order)
	}
}

// Many workers over a few indices, and the GOMAXPROCS default, still
// run every index exactly once.
func TestForEachCoversIndicesAtAnyWorkerCount(t *testing.T) {
	for _, workers := range []int{-1, 0, 3, 64} {
		var hits [5]atomic.Int32
		if err := ForEach(len(hits), workers, func(i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

// Concurrent requests for one key compute it once: the first request
// computes, every other blocks on the in-flight entry and receives the
// same value.
func TestMemoSingleFlight(t *testing.T) {
	const callers = 16
	var m Memo[string, *int]
	var computes atomic.Int32
	release := make(chan struct{})
	compute := func() (*int, error) {
		computes.Add(1)
		<-release
		v := 42
		return &v, nil
	}

	results := make([]*int, callers)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0], _ = m.Do("k", compute)
	}()
	waitFor(t, "the first request to start computing", func() bool { return m.Stats().Misses == 1 })
	for i := 1; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _ = m.Do("k", compute)
		}(i)
	}
	waitFor(t, "every other request to block on it", func() bool { return m.Stats().Waits == callers-1 })
	close(release)
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("computed %d times, want 1", got)
	}
	for i, r := range results {
		if r != results[0] || *r != 42 {
			t.Fatalf("caller %d got %v, want the shared result %v", i, r, results[0])
		}
	}
	if st := m.Stats(); st != (MemoStats{Hits: 0, Misses: 1, Waits: callers - 1}) {
		t.Fatalf("stats = %+v", st)
	}
	if _, err := m.Do("k", compute); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Hits != 1 || computes.Load() != 1 {
		t.Fatalf("completed entry not served: stats %+v, %d computes", st, computes.Load())
	}
}

// waitFor polls cond until it holds, failing the test after a generous
// deadline instead of hanging.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// A failing computation is memoized like a value: later requests get
// the same error without recomputing.
func TestMemoMemoizesErrors(t *testing.T) {
	var m Memo[int, int]
	calls := 0
	boom := errors.New("boom")
	for i := 0; i < 3; i++ {
		if _, err := m.Do(1, func() (int, error) { calls++; return 0, boom }); !errors.Is(err, boom) {
			t.Fatalf("request %d: err = %v, want %v", i, err, boom)
		}
	}
	if calls != 1 {
		t.Fatalf("computed %d times, want 1", calls)
	}
	if st := m.Stats(); st != (MemoStats{Hits: 2, Misses: 1}) {
		t.Fatalf("stats = %+v", st)
	}
}

// A disabled memo recomputes every request and counts nothing;
// disabling discards what was stored, so re-enabling starts empty.
// Clear empties an enabled memo and zeroes its counters.
func TestMemoDisabledRecomputes(t *testing.T) {
	var m Memo[int, int]
	calls := 0
	compute := func() (int, error) { calls++; return calls, nil }

	if v, _ := m.Do(1, compute); v != 1 {
		t.Fatalf("first request = %d", v)
	}
	m.SetEnabled(false)
	if m.Enabled() {
		t.Fatal("Enabled after SetEnabled(false)")
	}
	for want := 2; want <= 3; want++ {
		if v, _ := m.Do(1, compute); v != want {
			t.Fatalf("disabled request = %d, want a fresh computation %d", v, want)
		}
	}
	if st := m.Stats(); st != (MemoStats{}) {
		t.Fatalf("disabled memo counted %+v", st)
	}

	m.SetEnabled(true)
	if v, _ := m.Do(1, compute); v != 4 {
		t.Fatalf("re-enabled request = %d, want a fresh computation 4", v)
	}
	if v, _ := m.Do(1, compute); v != 4 {
		t.Fatalf("repeat request = %d, want the memoized 4", v)
	}
	m.Clear()
	if st := m.Stats(); st != (MemoStats{}) {
		t.Fatalf("Clear left counters %+v", st)
	}
	if v, _ := m.Do(1, compute); v != 5 || !m.Enabled() {
		t.Fatalf("request after Clear = %d (enabled %v), want a fresh computation 5", v, m.Enabled())
	}
}

// obj is a recyclable test object whose Reset can be made to fail.
type obj struct {
	id      int
	dirty   bool
	resets  int
	failing bool
}

func (o *obj) Reset() error {
	o.resets++
	if o.failing {
		return errors.New("leaked state")
	}
	o.dirty = false
	return nil
}

// Put Resets an object and Get hands it back for the same key. Under
// the race detector sync.Pool drops some Puts at random, so the test
// retries until one round trip lands.
func TestPoolRecycles(t *testing.T) {
	var p Pool[string, *obj]
	next := 0
	build := func() (*obj, error) { next++; return &obj{id: next}, nil }
	for attempt := 0; attempt < 100; attempt++ {
		o, err := p.Get("a", build)
		if err != nil {
			t.Fatal(err)
		}
		o.dirty = true
		p.Put("a", o)
		if o.resets == 0 || o.dirty {
			t.Fatalf("Put did not Reset the object: %+v", o)
		}
		if got, _ := p.Get("a", build); got == o {
			st := p.Stats()
			if st.Recycled == 0 || st.Built+st.Recycled != uint64(2*(attempt+1)) {
				t.Fatalf("stats = %+v after %d round trips", st, attempt+1)
			}
			if other, _ := p.Get("b", build); other == o {
				t.Fatal("an object filed under one key was handed out for another")
			}
			return
		}
	}
	t.Fatal("no object was ever recycled")
}

// An object whose Reset fails is dropped and counted, never reused.
func TestPoolDropsFailedReset(t *testing.T) {
	var p Pool[int, *obj]
	build := func() (*obj, error) { return &obj{failing: true}, nil }
	for i := 0; i < 10; i++ {
		o, err := p.Get(0, build)
		if err != nil {
			t.Fatal(err)
		}
		p.Put(0, o)
	}
	if st := p.Stats(); st != (PoolStats{Built: 10, ResetFailures: 10}) {
		t.Fatalf("stats = %+v, want every Get built and every Put dropped", st)
	}
	p.Clear()
	if st := p.Stats(); st != (PoolStats{}) {
		t.Fatalf("Clear left counters %+v", st)
	}
}

// A disabled pool neither Resets nor files what it is given, so every
// Get builds.
func TestPoolDisabledBuildsEveryTime(t *testing.T) {
	var p Pool[int, *obj]
	p.SetEnabled(false)
	if p.Enabled() {
		t.Fatal("Enabled after SetEnabled(false)")
	}
	build := func() (*obj, error) { return &obj{}, nil }
	for i := 0; i < 10; i++ {
		o, err := p.Get(0, build)
		if err != nil {
			t.Fatal(err)
		}
		p.Put(0, o)
		if o.resets != 0 {
			t.Fatal("disabled pool Reset an object")
		}
	}
	if st := p.Stats(); st != (PoolStats{Built: 10}) {
		t.Fatalf("stats = %+v, want 10 builds", st)
	}
}
