package experiments

import (
	"math"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/par"
	"repro/internal/workload"
)

// cacheKey identifies one measurement point up to simulation
// determinism: two Measure calls with equal keys provably produce the
// same Measurement, because the simulation is a pure function of the
// cost model, the testbed configuration, the semantics, and the length.
// The cost model enters by content fingerprint — models are immutable
// and fingerprinted at construction, so separately constructed but
// identical models share one entry space (a nil Setup.Model is
// normalized to the shared Baseline first). The Genie config enters by
// content, with the zero value normalized to the defaults NewTestbed
// would substitute.
type cacheKey struct {
	model      uint64 // cost.Model content fingerprint
	scheme     netsim.InputBuffering
	devOff     int
	appOffset  int
	genie      core.Config
	instrument bool
	plane      string // data-plane name; planes cannot change results, but share no testbeds
	faults     faults.Spec
	sem        core.Semantics
	length     int
}

// measureKey builds the cache key for one measurement point.
func measureKey(s Setup, sem core.Semantics, length int) cacheKey {
	genie := s.Genie
	if genie == (core.Config{}) {
		genie = core.DefaultConfig()
	}
	return cacheKey{
		model:      s.model().Fingerprint(),
		scheme:     s.Scheme,
		devOff:     s.DevOff,
		appOffset:  s.AppOffset,
		genie:      genie,
		instrument: s.Instrument,
		plane:      s.plane().Name(),
		faults:     s.Faults,
		sem:        sem,
		length:     length,
	}
}

// measureMemo is the package-wide single-flight memo of measurement
// points consulted by Measure. Across a full geniebench run the figure
// and table generators probe many identical (Setup, Semantics, length)
// points — Figure 3, its throughput table, Table 7, and the OC-12
// extension all re-measure the same max-datagram points, and Table 6
// and Table 7 run the same instrumented sweeps — so each unique point
// is simulated exactly once and shared by reference. The paper's thesis
// is that redundant data handling dominates I/O cost; the harness takes
// its own advice. Memoized Measurements (including their Records
// slices) are shared across callers and must be treated as immutable.
var measureMemo par.Memo[cacheKey, Measurement]

// measureVia returns the point's measurement from memo, simulating it
// on a miss.
func measureVia(memo *par.Memo[cacheKey, Measurement], s Setup, sem core.Semantics, length int) (Measurement, error) {
	return memo.Do(measureKey(s, sem, length), func() (Measurement, error) {
		return measureUncached(s, sem, length)
	})
}

// SetCaching enables or disables the package-wide measurement memo
// used by Measure and every generator built on it. Disabling discards
// the memo contents and counters; re-enabling starts from an empty
// memo. Cached and uncached runs produce byte-identical output — the
// memo only removes redundant simulation.
func SetCaching(on bool) { measureMemo.SetEnabled(on) }

// CachingEnabled reports whether the package-wide memo is active.
func CachingEnabled() bool { return measureMemo.Enabled() }

// PerfStats is a snapshot of the harness's own performance counters:
// the measurement and workload-point memos and the testbed, cluster and
// storage-rig recyclers.
type PerfStats struct {
	// CacheHits counts Measure calls satisfied by a completed memo.
	CacheHits uint64 `json:"cache_hits"`
	// CacheMisses counts Measure calls that simulated the point.
	CacheMisses uint64 `json:"cache_misses"`
	// CacheWaits counts Measure calls that blocked on another worker
	// computing the same point (single-flight dedupe).
	CacheWaits uint64 `json:"cache_waits"`
	// TestbedsBuilt counts testbeds constructed from scratch.
	TestbedsBuilt uint64 `json:"testbeds_built"`
	// TestbedsRecycled counts measurements served by a Reset testbed
	// from a free list instead of a fresh construction.
	TestbedsRecycled uint64 `json:"testbeds_recycled"`
	// ResetFailures counts testbeds and storage rigs dropped because
	// Reset failed; always zero unless a simulation leaked state.
	ResetFailures uint64 `json:"reset_failures,omitempty"`
	// AnalyticPoints counts measurement points served by the closed-form
	// evaluator (EstimateAnalytic and BigSweep) instead of the simulator.
	AnalyticPoints uint64 `json:"analytic_points,omitempty"`
	// SimulatedSpotchecks counts the seeded oracle simulations BigSweep
	// ran to validate the analytic path.
	SimulatedSpotchecks uint64 `json:"simulated_spotchecks,omitempty"`
	// MaxRelErr is the worst analytic-vs-simulated relative error
	// observed by any spot check since the last reset.
	MaxRelErr float64 `json:"max_rel_err,omitempty"`
	// WorkloadMemoHits counts workload sweep points served by a
	// completed entry of the workload-point memo.
	WorkloadMemoHits uint64 `json:"workload_memo_hits,omitempty"`
	// WorkloadMemoMisses counts workload sweep points simulated from
	// scratch.
	WorkloadMemoMisses uint64 `json:"workload_memo_misses,omitempty"`
	// WorkloadMemoWaits counts workload sweep points that blocked on
	// another point worker computing the same point (single-flight).
	WorkloadMemoWaits uint64 `json:"workload_memo_waits,omitempty"`
	// ClustersBuilt counts multi-host clusters constructed from scratch
	// for workload sweep points.
	ClustersBuilt uint64 `json:"clusters_built,omitempty"`
	// ClustersRecycled counts workload sweep points served by a Reset
	// cluster from a free list instead of a fresh construction.
	ClustersRecycled uint64 `json:"clusters_recycled,omitempty"`
	// ClusterResetFailures counts clusters dropped because Reset failed;
	// always zero unless a simulation leaked state.
	ClusterResetFailures uint64 `json:"cluster_reset_failures,omitempty"`
	// StorageRigsBuilt counts testbed+storage rigs constructed from
	// scratch for storage sweep points.
	StorageRigsBuilt uint64 `json:"storage_rigs_built,omitempty"`
	// StorageRigsRecycled counts storage sweep points served by a Reset
	// rig from a free list instead of a fresh construction.
	StorageRigsRecycled uint64 `json:"storage_rigs_recycled,omitempty"`
}

// Perf returns a snapshot of the package-wide performance counters.
func Perf() PerfStats {
	wl := workload.Perf()
	ms, tb, rig := measureMemo.Stats(), testbeds.Stats(), storageRigs.Stats()
	return PerfStats{
		CacheHits:            ms.Hits,
		CacheMisses:          ms.Misses,
		CacheWaits:           ms.Waits,
		TestbedsBuilt:        tb.Built,
		TestbedsRecycled:     tb.Recycled,
		ResetFailures:        tb.ResetFailures + rig.ResetFailures,
		AnalyticPoints:       analyticPoints.Load(),
		SimulatedSpotchecks:  simulatedSpotchecks.Load(),
		MaxRelErr:            math.Float64frombits(analyticMaxRelErr.Load()),
		WorkloadMemoHits:     wl.MemoHits,
		WorkloadMemoMisses:   wl.MemoMisses,
		WorkloadMemoWaits:    wl.MemoWaits,
		ClustersBuilt:        wl.ClustersBuilt,
		ClustersRecycled:     wl.ClustersRecycled,
		ClusterResetFailures: wl.ClusterResetFailures,
		StorageRigsBuilt:     rig.Built,
		StorageRigsRecycled:  rig.Recycled,
	}
}

// ResetPerf discards the package-wide memo contents, the testbed and
// storage-rig free lists, and all performance counters, preserving the
// enabled/disabled state of each layer. Tests and benchmarks use it to
// measure from a cold start.
func ResetPerf() {
	measureMemo.Clear()
	testbeds.Clear()
	storageRigs.Clear()
	analyticPoints.Store(0)
	simulatedSpotchecks.Store(0)
	analyticMaxRelErr.Store(0)
	workload.ResetPerf()
}
