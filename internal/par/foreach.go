// Package par holds the harness's three shared pieces of concurrency
// machinery: an index fan-out (ForEach), a single-flight memo (Memo)
// and a keyed object recycler (Pool). The measurement harness, the
// closed-loop workload sweep and the storage sweep all use them, so
// each concern has exactly one implementation. The package depends on
// the standard library only.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach runs fn(i) for every i in [0, n), fanning the calls across
// workers goroutines that claim indices off a shared counter. workers
// <= 0 means runtime.GOMAXPROCS(0); the count is clamped to [1, n], and
// at one worker the loop runs inline with no goroutines. fn must write
// its result into caller-owned, index-i storage; distinct indices never
// race.
//
// The returned error is deterministic: among all failing indices, the
// error of the lowest one — exactly the error the serial loop would
// have returned. Every index below the lowest failure runs; indices past
// a known failure may be abandoned.
func ForEach(n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next   atomic.Int64
		mu     sync.Mutex
		errIdx = n
		first  error
		wg     sync.WaitGroup
	)
	next.Store(-1)
	for k := workers; k > 0; k-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				mu.Lock()
				abandoned := i > errIdx
				mu.Unlock()
				if abandoned {
					// An earlier index already failed; later work can
					// be abandoned without changing the outcome.
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if i < errIdx {
						errIdx, first = i, err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}
