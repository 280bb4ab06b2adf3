package experiments

import (
	"runtime"
	"time"

	"repro/internal/workload"
)

// The closed-loop workload experiment: run one backpressure sweep
// (semantics × queue depth × offered load, see internal/workload) at
// several worker counts, digest-compare the runs, and report the
// serial baseline's schemes. This is the same determinism discipline
// as the cluster benchmarks — the digest folds every latency sample,
// counter, and high-water mark, so a single worker-count-dependent
// perturbation anywhere in the stack flips Deterministic to false.
//
// The sweep itself runs on the full PR 1 + PR 2 optimization stack
// brought to the cluster layer: independent (semantics, depth, load)
// points fan across PointWorkers goroutines, each point reuses a warm
// Reset cluster from the recycler, and the workload-point memo makes
// every worker count after the first verify against memoized points
// instead of recomputing — the default {1, 4} verification run costs
// about one sweep, not two. All of it is observably identical to the
// cold serial path (byte-identical digests); CompareSerialCold measures
// exactly that claim.

// WorkloadConfig parameterizes the experiment: the sweep itself plus
// the worker counts to compare.
type WorkloadConfig struct {
	workload.Config
	// Workers lists the worker counts to run the sweep at, one
	// digest-compared run each; empty → 1 and 4. The count has no
	// effect on execution: each point's cluster advances serially.
	Workers []int
	// PointWorkers is the number of goroutines independent (semantics,
	// depth, load) points fan across. 0 adopts the package-wide
	// parallelism (SetParallelism / geniebench -parallel, defaulting to
	// GOMAXPROCS); 1 is the strictly serial walk. Results are
	// byte-identical at any value.
	PointWorkers int
	// CompareSerialCold, when set, first times the entire verification
	// run in the PR 8 regime — one point at a time, no memo, no cluster
	// recycling — and reports the optimized run's speedup over it. The
	// cold digest participates in the determinism verdict.
	CompareSerialCold bool
}

// WorkloadWorkerRun is one full sweep at a fixed worker count.
type WorkloadWorkerRun struct {
	Workers      int     `json:"workers"`
	Digest       string  `json:"digest"`
	CompletedOps uint64  `json:"completed_ops"`
	ElapsedSec   float64 `json:"elapsed_sec"`
}

// WorkloadReport is the experiment outcome: the serial baseline's full
// sweep, the per-worker-count digests, and the determinism verdict.
type WorkloadReport struct {
	Scenario      string              `json:"scenario"`
	GOMAXPROCS    int                 `json:"gomaxprocs"`
	NumCPU        int                 `json:"num_cpu"`
	PointWorkers  int                 `json:"point_workers"`
	Result        *workload.Result    `json:"result"`
	Runs          []WorkloadWorkerRun `json:"runs"`
	Deterministic bool                `json:"deterministic"`
	// SerialColdSec is the wall-clock of the whole verification run in
	// the serial/cold regime (CompareSerialCold only).
	SerialColdSec float64 `json:"serial_cold_sec,omitempty"`
	// OptimizedSec is the wall-clock of the optimized verification run
	// (point-parallel + recycled + memo-served), summed over Runs.
	OptimizedSec float64 `json:"optimized_sec,omitempty"`
	// Speedup is SerialColdSec / OptimizedSec (CompareSerialCold only).
	Speedup float64 `json:"speedup_vs_serial_cold,omitempty"`
	// Perf snapshots the harness's performance counters after the run:
	// workload memo hits/misses/waits and clusters recycled/built, next
	// to the pairwise-path cache and testbed counters.
	Perf PerfStats `json:"perf"`
}

// RunWorkload executes the sweep at every configured worker count. The
// first run (workers=1 unless overridden) is the reported baseline;
// every other run must reproduce its digest bit for bit — simulating
// each point at most once in total, because the later runs verify
// against the workload-point memo.
func RunWorkload(cfg WorkloadConfig) (*WorkloadReport, error) {
	workers := cfg.Workers
	if len(workers) == 0 {
		workers = []int{1, 4}
	}
	pointWorkers := cfg.PointWorkers
	if pointWorkers == 0 {
		pointWorkers = Parallelism()
	}
	rep := &WorkloadReport{
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		PointWorkers:  workload.ResolvePointWorkers(pointWorkers),
		Deterministic: true,
	}

	coldDigest := ""
	if cfg.CompareSerialCold {
		memoWas, recycleWas := workload.PointMemoEnabled(), workload.ClusterRecyclingEnabled()
		workload.SetPointMemo(false)
		workload.SetClusterRecycling(false)
		start := time.Now()
		for _, w := range workers {
			if w < 1 {
				w = 1
			}
			res, err := workload.Run(cfg.Config, w)
			if err != nil {
				workload.SetPointMemo(memoWas)
				workload.SetClusterRecycling(recycleWas)
				return nil, err
			}
			if coldDigest == "" {
				coldDigest = res.Digest
			}
		}
		rep.SerialColdSec = time.Since(start).Seconds()
		workload.SetPointMemo(memoWas)
		workload.SetClusterRecycling(recycleWas)
	}

	for _, w := range workers {
		if w < 1 {
			w = 1
		}
		start := time.Now()
		res, err := workload.RunParallel(cfg.Config, w, pointWorkers)
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start).Seconds()
		rep.OptimizedSec += elapsed
		rep.Runs = append(rep.Runs, WorkloadWorkerRun{
			Workers:      w,
			Digest:       res.Digest,
			CompletedOps: res.CompletedOps,
			ElapsedSec:   elapsed,
		})
		if rep.Result == nil {
			rep.Result = res
			rep.Scenario = res.Scenario
		} else if res.Digest != rep.Result.Digest {
			rep.Deterministic = false
		}
	}
	if coldDigest != "" {
		if coldDigest != rep.Result.Digest {
			rep.Deterministic = false
		}
		if rep.OptimizedSec > 0 {
			rep.Speedup = rep.SerialColdSec / rep.OptimizedSec
		}
	}
	rep.Perf = Perf()
	return rep, nil
}
