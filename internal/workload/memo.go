package workload

import (
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/par"
)

// The workload-point memo: a sweep point is a pure function of the
// workload configuration and its (semantics, depth, load) coordinates —
// and of nothing else. In particular the sweep's worker count is *not*
// part of the identity (it has no effect on execution), so a repeated
// sweep is served from the memo instead of recomputing. The memo is
// single-flight, exactly like the measurement memo on the pairwise
// path: racing point workers asking for the same point block on the
// in-flight entry instead of computing it twice.

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

// pointMemo is the package-wide memo. A memoized *pointRaw is shared
// by reference and only ever read (makePoint and foldPoint are pure
// readers).
var pointMemo par.Memo[pointKey, *pointRaw]

// SetPointMemo enables or disables the workload-point memo. Disabling
// discards the memo contents and counters; re-enabling starts from an
// empty memo.
// Memoized and recomputed points are bit-identical — the memo only
// removes redundant simulation — so the toggle exists for benchmarking
// and for tests that want every run to genuinely re-simulate.
func SetPointMemo(on bool) { pointMemo.SetEnabled(on) }

// PointMemoEnabled reports whether the workload-point memo is active.
func PointMemoEnabled() bool { return pointMemo.Enabled() }

// memoPoint returns the memoized raw observations for the point,
// computing them on a miss.
func memoPoint(cfg Config, sem core.Semantics, depth int, load float64) (*pointRaw, error) {
	return pointMemo.Do(memoKeyFor(cfg, sem, depth, load), func() (*pointRaw, error) {
		return computePoint(cfg, sem, depth, load)
	})
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
	ms, cs := pointMemo.Stats(), clusters.Stats()
	return PerfStats{
		MemoHits:             ms.Hits,
		MemoMisses:           ms.Misses,
		MemoWaits:            ms.Waits,
		ClustersBuilt:        cs.Built,
		ClustersRecycled:     cs.Recycled,
		ClusterResetFailures: cs.ResetFailures,
	}
}

// ResetPerf discards the memo contents, the cluster free lists, and all
// performance counters, preserving the enabled/disabled state of each
// layer. Tests and benchmarks use it to measure from a cold start.
func ResetPerf() {
	pointMemo.Clear()
	clusters.Clear()
}
