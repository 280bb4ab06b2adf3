package workload

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/faults"
)

// The workload-point memo: a sweep point is a pure function of the
// workload configuration and its (semantics, depth, load) coordinates —
// and of nothing else. In particular the sweep's worker count is *not*
// part of the identity (it has no effect on execution), so
// RunWorkload's digest comparison across worker counts simulates each
// point once and lets the other worker counts verify against the memo
// instead of recomputing — the default {1, 4}-worker verification run
// costs ~1x rather than ~2x the sweep. The memo is
// lock-striped and single-flight, exactly like the measurement cache on
// the pairwise path: racing point workers asking for the same point
// block on the in-flight entry instead of computing it twice.

// pointKey identifies one operating point up to simulation determinism.
// Every Config field that reaches the simulation is present; the
// scenario-irrelevant fields still key (a fileserver point ignores
// StreamMBps, but keying it costs nothing and keeps the key a plain
// value copy of the normalized config).
type pointKey struct {
	scenario   string
	clients    int
	ops        int
	msgBytes   int
	thinkUS    float64
	pipeline   int
	streamMBps float64
	window     int
	rtoUS      float64
	faults     faults.Spec
	seed       uint64
	sem        core.Semantics
	depth      int
	load       float64
}

// memoKeyFor builds the point key from a normalized Config.
func memoKeyFor(cfg Config, sem core.Semantics, depth int, load float64) pointKey {
	return pointKey{
		scenario:   cfg.Scenario,
		clients:    cfg.Clients,
		ops:        cfg.Ops,
		msgBytes:   cfg.MsgBytes,
		thinkUS:    cfg.ThinkUS,
		pipeline:   cfg.Pipeline,
		streamMBps: cfg.StreamMBps,
		window:     cfg.Window,
		rtoUS:      cfg.RTOUS,
		faults:     cfg.Faults,
		seed:       cfg.Seed,
		sem:        sem,
		depth:      depth,
		load:       load,
	}
}

// memoEntry is one memoized point. done is closed once raw and err are
// final; until then latecomers for the same key block on it.
type memoEntry struct {
	done chan struct{}
	raw  *pointRaw
	err  error
}

// memoShards is the number of lock-striped segments; a power of two so
// the shard index is a mask of the key hash.
const memoShards = 16

type memoShard struct {
	mu      sync.Mutex
	entries map[pointKey]*memoEntry
}

// pointMemo is the package-wide memo. Entries are immutable once their
// done channel closes; a memoized *pointRaw is shared by reference and
// only ever read (makePoint and foldPoint are pure readers).
var pointMemo [memoShards]memoShard

func init() {
	for i := range pointMemo {
		pointMemo[i].entries = make(map[pointKey]*memoEntry)
	}
}

var (
	memoHits   atomic.Uint64
	memoMisses atomic.Uint64
	memoWaits  atomic.Uint64
)

// pointMemoOff gates the memo; false = memo on (the default).
var pointMemoOff atomic.Bool

// SetPointMemo enables or disables the workload-point memo. Disabling
// discards the memo contents; re-enabling starts from an empty memo.
// Memoized and recomputed points are bit-identical — the memo only
// removes redundant simulation — so the toggle exists for benchmarking
// and for tests that want every run to genuinely re-simulate.
func SetPointMemo(on bool) {
	pointMemoOff.Store(!on)
	if !on {
		clearPointMemo()
	}
}

// PointMemoEnabled reports whether the workload-point memo is active.
func PointMemoEnabled() bool { return !pointMemoOff.Load() }

func clearPointMemo() {
	for i := range pointMemo {
		sh := &pointMemo[i]
		sh.mu.Lock()
		sh.entries = make(map[pointKey]*memoEntry)
		sh.mu.Unlock()
	}
}

// memoShardIndex hashes the key's discriminating fields (FNV-1a) down
// to a stripe. The hash only distributes — equality is still decided by
// the full key inside the shard map.
func memoShardIndex(k *pointKey) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	mix(uint64(k.sem)<<32 | uint64(k.depth))
	mix(jitter(k.seed, k.depth, int(100*k.load)))
	for i := 0; i < len(k.scenario); i++ {
		h ^= uint64(k.scenario[i])
		h *= prime
	}
	return h & (memoShards - 1)
}

// memoPoint returns the memoized raw observations for the point,
// computing them on a miss. Errors are memoized too: the simulation is
// deterministic, so a failing point fails identically on every probe.
func memoPoint(cfg Config, sem core.Semantics, depth int, load float64) (*pointRaw, error) {
	if pointMemoOff.Load() {
		return computePoint(cfg, sem, depth, load)
	}
	key := memoKeyFor(cfg, sem, depth, load)
	sh := &pointMemo[memoShardIndex(&key)]
	sh.mu.Lock()
	if e, ok := sh.entries[key]; ok {
		sh.mu.Unlock()
		select {
		case <-e.done:
			memoHits.Add(1)
		default:
			memoWaits.Add(1)
			<-e.done
		}
		return e.raw, e.err
	}
	e := &memoEntry{done: make(chan struct{})}
	sh.entries[key] = e
	sh.mu.Unlock()
	memoMisses.Add(1)
	e.raw, e.err = computePoint(cfg, sem, depth, load)
	close(e.done)
	return e.raw, e.err
}

// PerfStats is a snapshot of the workload engine's own performance
// counters: the point memo and the cluster recycler.
type PerfStats struct {
	// MemoHits counts points served by a completed memo entry.
	MemoHits uint64 `json:"workload_memo_hits"`
	// MemoMisses counts points that simulated from scratch.
	MemoMisses uint64 `json:"workload_memo_misses"`
	// MemoWaits counts points that blocked on another worker computing
	// the same point (single-flight dedupe).
	MemoWaits uint64 `json:"workload_memo_waits"`
	// ClustersBuilt counts clusters constructed from scratch.
	ClustersBuilt uint64 `json:"clusters_built"`
	// ClustersRecycled counts points served by a Reset cluster from a
	// free list instead of a fresh construction.
	ClustersRecycled uint64 `json:"clusters_recycled"`
	// ClusterResetFailures counts clusters dropped because Reset failed;
	// always zero unless a simulation leaked state.
	ClusterResetFailures uint64 `json:"cluster_reset_failures,omitempty"`
}

// Perf returns a snapshot of the package-wide performance counters.
func Perf() PerfStats {
	return PerfStats{
		MemoHits:             memoHits.Load(),
		MemoMisses:           memoMisses.Load(),
		MemoWaits:            memoWaits.Load(),
		ClustersBuilt:        clustersBuilt.Load(),
		ClustersRecycled:     clustersRecycled.Load(),
		ClusterResetFailures: clusterResetFailures.Load(),
	}
}

// ResetPerf discards the memo contents, the cluster free lists, and all
// performance counters, preserving the enabled/disabled state of each
// layer. Tests and benchmarks use it to measure from a cold start.
func ResetPerf() {
	clearPointMemo()
	clusterPools = sync.Map{}
	memoHits.Store(0)
	memoMisses.Store(0)
	memoWaits.Store(0)
	clustersBuilt.Store(0)
	clustersRecycled.Store(0)
	clusterResetFailures.Store(0)
}
