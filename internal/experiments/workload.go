package experiments

import (
	"runtime"
	"time"

	"repro/internal/workload"
)

// The closed-loop workload experiment: run one backpressure sweep
// (semantics × queue depth × offered load, see internal/workload)
// twice, digest-compare the runs, and report the first run's schemes.
// This is the same determinism discipline as the cluster benchmarks —
// the digest folds every latency sample, counter, and high-water mark,
// so a single perturbation anywhere in the stack flips Deterministic to
// false.
//
// The sweep itself runs on the full optimization stack brought to the
// cluster layer: independent (semantics, depth, load) points fan across
// PointWorkers goroutines, each point reuses a warm Reset cluster from
// the recycler, and the workload-point memo serves the second run
// instead of recomputing it. All of it is observably identical to the
// cold serial path (byte-identical digests); CompareSerialCold measures
// exactly that claim.

// workloadRuns is the number of sweeps RunWorkload digest-compares, in
// each regime it times.
const workloadRuns = 2

// WorkloadConfig parameterizes the experiment: the sweep itself plus
// how it fans out.
type WorkloadConfig struct {
	workload.Config
	// PointWorkers is the number of goroutines independent (semantics,
	// depth, load) points fan across. 0 adopts the package-wide
	// parallelism (SetParallelism / geniebench -parallel, defaulting to
	// GOMAXPROCS); 1 is the strictly serial walk. Results are
	// byte-identical at any value.
	PointWorkers int
	// CompareSerialCold, when set, first times the same two runs in the
	// serial/cold regime — one point at a time, no memo, no cluster
	// recycling — and reports the optimized runs' speedup over them.
	// Both cold digests participate in the determinism verdict.
	CompareSerialCold bool
}

// WorkloadRun is one full sweep.
type WorkloadRun struct {
	Digest       string  `json:"digest"`
	CompletedOps uint64  `json:"completed_ops"`
	ElapsedSec   float64 `json:"elapsed_sec"`
}

// WorkloadReport is the experiment outcome: the first run's full
// sweep, every run's digest, and the determinism verdict.
type WorkloadReport struct {
	Scenario      string           `json:"scenario"`
	GOMAXPROCS    int              `json:"gomaxprocs"`
	NumCPU        int              `json:"num_cpu"`
	PointWorkers  int              `json:"point_workers"`
	Result        *workload.Result `json:"result"`
	Runs          []WorkloadRun    `json:"runs"`
	Deterministic bool             `json:"deterministic"`
	// SerialColdSec is the wall-clock of the runs in the serial/cold
	// regime (CompareSerialCold only).
	SerialColdSec float64 `json:"serial_cold_sec,omitempty"`
	// OptimizedSec is the wall-clock of the optimized runs
	// (point-parallel + recycled + memo-served), summed over Runs.
	OptimizedSec float64 `json:"optimized_sec,omitempty"`
	// Speedup is SerialColdSec / OptimizedSec (CompareSerialCold only).
	Speedup float64 `json:"speedup_vs_serial_cold,omitempty"`
	// Perf snapshots the harness's performance counters after the run:
	// workload memo hits/misses/waits and clusters recycled/built, next
	// to the pairwise-path cache and testbed counters.
	Perf PerfStats `json:"perf"`
}

// RunWorkload executes the sweep twice. The first run is the reported
// baseline; the second must reproduce its digest bit for bit. With the
// memo on, the second run is served from it without simulating.
func RunWorkload(cfg WorkloadConfig) (*WorkloadReport, error) {
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

	var coldDigests []string
	if cfg.CompareSerialCold {
		var err error
		if coldDigests, rep.SerialColdSec, err = runSerialCold(cfg.Config); err != nil {
			return nil, err
		}
	}

	for i := 0; i < workloadRuns; i++ {
		start := time.Now()
		res, err := workload.RunParallel(cfg.Config, 1, pointWorkers)
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start).Seconds()
		rep.OptimizedSec += elapsed
		rep.Runs = append(rep.Runs, WorkloadRun{
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
	for _, dg := range coldDigests {
		if dg != rep.Result.Digest {
			rep.Deterministic = false
		}
	}
	if cfg.CompareSerialCold && rep.OptimizedSec > 0 {
		rep.Speedup = rep.SerialColdSec / rep.OptimizedSec
	}
	rep.Perf = Perf()
	return rep, nil
}

// runSerialCold runs the sweep workloadRuns times in the serial/cold
// regime — one point at a time, no memo, no cluster recycling — and
// returns every run's digest and the total wall-clock. The memo and
// recycling switches are restored on return.
func runSerialCold(cfg workload.Config) (digests []string, sec float64, err error) {
	memoWas, recycleWas := workload.PointMemoEnabled(), workload.ClusterRecyclingEnabled()
	workload.SetPointMemo(false)
	workload.SetClusterRecycling(false)
	defer func() {
		workload.SetPointMemo(memoWas)
		workload.SetClusterRecycling(recycleWas)
	}()
	start := time.Now()
	for i := 0; i < workloadRuns; i++ {
		res, err := workload.Run(cfg, 1)
		if err != nil {
			return nil, 0, err
		}
		digests = append(digests, res.Digest)
	}
	return digests, time.Since(start).Seconds(), nil
}
