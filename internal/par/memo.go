package par

import (
	"sync"
	"sync/atomic"
)

// Memo is a single-flight memo from comparable keys to values. The
// first request for a key computes the value; requests that arrive
// while it computes block on the in-flight entry instead of computing
// it twice, and later requests share the stored result. Errors are
// memoized too: the harness's computations are deterministic, so a
// failing key fails identically on every request.
//
// One mutex guards one map. The lock covers only a map lookup or
// insert, while a miss simulates for tens of microseconds or more, so
// striping the map buys nothing measurable.
//
// The zero Memo is enabled and empty. A Memo is safe for concurrent
// use; stored values are shared by reference across callers and must
// be treated as immutable.
type Memo[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*memoEntry[V]
	off     bool

	hits   atomic.Uint64 // requests served by a completed entry
	misses atomic.Uint64 // requests that computed the value
	waits  atomic.Uint64 // requests that blocked on an in-flight computation
}

// memoEntry is one memoized value. done is closed once v and err are
// final.
type memoEntry[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// MemoStats is a snapshot of a Memo's counters.
type MemoStats struct {
	Hits, Misses, Waits uint64
}

// Do returns the memoized result for k, calling compute on the first
// request. A disabled memo calls compute every time and counts nothing.
func (m *Memo[K, V]) Do(k K, compute func() (V, error)) (V, error) {
	m.mu.Lock()
	if m.off {
		m.mu.Unlock()
		return compute()
	}
	if e, ok := m.entries[k]; ok {
		m.mu.Unlock()
		select {
		case <-e.done:
			m.hits.Add(1)
		default:
			m.waits.Add(1)
			<-e.done
		}
		return e.v, e.err
	}
	if m.entries == nil {
		m.entries = make(map[K]*memoEntry[V])
	}
	e := &memoEntry[V]{done: make(chan struct{})}
	m.entries[k] = e
	m.mu.Unlock()
	m.misses.Add(1)
	e.v, e.err = compute()
	close(e.done)
	return e.v, e.err
}

// SetEnabled turns the memo on or off. Disabling discards the contents
// and counters; re-enabling starts from an empty memo.
func (m *Memo[K, V]) SetEnabled(on bool) {
	m.mu.Lock()
	m.off = !on
	m.mu.Unlock()
	if !on {
		m.Clear()
	}
}

// Enabled reports whether the memo is on.
func (m *Memo[K, V]) Enabled() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return !m.off
}

// Clear discards the contents and zeroes the counters, keeping the
// enabled state. Requests already waiting on an in-flight entry still
// receive its result.
func (m *Memo[K, V]) Clear() {
	m.mu.Lock()
	m.entries = nil
	m.mu.Unlock()
	m.hits.Store(0)
	m.misses.Store(0)
	m.waits.Store(0)
}

// Stats returns the counters.
func (m *Memo[K, V]) Stats() MemoStats {
	return MemoStats{Hits: m.hits.Load(), Misses: m.misses.Load(), Waits: m.waits.Load()}
}
