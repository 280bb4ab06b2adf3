package par

import (
	"sync"
	"sync/atomic"
)

// Pool recycles expensive objects, one free list per key: objects with
// equal keys are interchangeable once Reset, which returns an object to
// its post-construction state or fails when a run leaked state into it.
// Put Resets the object and files it under its key; Get hands a filed
// object back, or builds a fresh one when the list is empty. An object
// whose Reset fails is dropped, never reused.
//
// The free lists are sync.Pools, which gives each P its own lock-free
// list and, just as important, lets the garbage collector free idle
// objects: pooled testbeds and clusters hold megabytes of frame
// backing store that an explicit free list would keep alive for the
// life of the process.
//
// The zero Pool is enabled and empty. A Pool is safe for concurrent use.
type Pool[K comparable, T interface{ Reset() error }] struct {
	lists sync.Map // K → *sync.Pool of T
	off   atomic.Bool

	built         atomic.Uint64 // Gets that built a fresh object
	recycled      atomic.Uint64 // Gets served from a free list
	resetFailures atomic.Uint64 // Puts dropped because Reset failed
}

// PoolStats is a snapshot of a Pool's counters.
type PoolStats struct {
	Built, Recycled, ResetFailures uint64
}

// Get returns a recycled object for k when one is free, otherwise the
// result of build.
func (p *Pool[K, T]) Get(k K, build func() (T, error)) (T, error) {
	if !p.off.Load() {
		if l, ok := p.lists.Load(k); ok {
			if v := l.(*sync.Pool).Get(); v != nil {
				p.recycled.Add(1)
				return v.(T), nil
			}
		}
	}
	p.built.Add(1)
	return build()
}

// Put Resets v and files it under k for reuse. A disabled pool drops v.
func (p *Pool[K, T]) Put(k K, v T) {
	if p.off.Load() {
		return
	}
	if err := v.Reset(); err != nil {
		p.resetFailures.Add(1)
		return
	}
	l, ok := p.lists.Load(k)
	if !ok {
		l, _ = p.lists.LoadOrStore(k, &sync.Pool{})
	}
	l.(*sync.Pool).Put(v)
}

// SetEnabled turns recycling on or off. Disabling drops nothing
// eagerly: filed objects stop being handed out (and are collected), and
// re-enabling resumes reuse.
func (p *Pool[K, T]) SetEnabled(on bool) { p.off.Store(!on) }

// Enabled reports whether recycling is on.
func (p *Pool[K, T]) Enabled() bool { return !p.off.Load() }

// Clear discards every free list and zeroes the counters, keeping the
// enabled state.
func (p *Pool[K, T]) Clear() {
	p.lists.Range(func(k, _ any) bool {
		p.lists.Delete(k)
		return true
	})
	p.built.Store(0)
	p.recycled.Store(0)
	p.resetFailures.Store(0)
}

// Stats returns the counters.
func (p *Pool[K, T]) Stats() PoolStats {
	return PoolStats{Built: p.built.Load(), Recycled: p.recycled.Load(), ResetFailures: p.resetFailures.Load()}
}
