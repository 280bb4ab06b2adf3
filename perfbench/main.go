// Command perfbench is the simulator's benchmark. It runs one named
// workload from a seed for a fixed number of host seconds, checks every
// output against committed references and structural invariants, and
// prints each metric by name with its unit. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. An untraced run (-trace 0) reports the end-to-end
// metrics; a traced run (-trace 1) drives each layer's entry points
// directly, records one span per call, and reports the per-layer
// metrics.
//
//	go run . -workload storage-mix -seed 1 -seconds 10 -trace 0
//
// Build and run it from the repository root with perfbench/run.py,
// which keeps every build artifact inside the checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/experiments"
	"repro/internal/mem"
	"repro/internal/workload"
)

// defaultSeed is the seed the committed references were recorded at.
const defaultSeed = 1

// outDir receives the full per-run report and the span file.
const outDir = ".bench_out"

// regime pins every performance toggle of the program in one place:
// the measurement and workload-point memos, testbed and cluster
// recycling, the data plane of the paper harness, and the worker
// counts. apply is the only call site that sets them; state is cleared
// only through experiments.ResetPerf.
type regime struct {
	Memo           bool   `json:"memo"`
	Recycle        bool   `json:"recycle"`
	Plane          string `json:"data_plane"`
	Runners        int    `json:"runner_workers"`
	PointWorkers   int    `json:"point_workers"`
	ClusterWorkers int    `json:"cluster_workers"`
}

var pinned = regime{
	Memo:           true,
	Recycle:        true,
	Plane:          "symbolic",
	Runners:        runtime.NumCPU(),
	PointWorkers:   1,
	ClusterWorkers: runtime.NumCPU(),
}

func (r regime) apply() error {
	plane, err := mem.PlaneByName(r.Plane)
	if err != nil {
		return err
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	experiments.SetCaching(r.Memo)
	experiments.SetRecycling(r.Recycle)
	experiments.SetDataPlane(plane)
	experiments.SetParallelism(r.Runners)
	workload.SetPointMemo(r.Memo)
	return nil
}

// env describes the machine and build a result was measured on.
type env struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Traced     bool   `json:"traced"`
	Seconds    int    `json:"seconds"`
	Regime     regime `json:"regime"`
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the summary printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is everything a run knows, written to outDir as JSON.
type report struct {
	Env      env                 `json:"env"`
	Result   result              `json:"result"`
	Work     map[string]uint64   `json:"work_per_pass"`
	Passes   int                 `json:"passes"`
	Shape    map[string]any      `json:"shape"`
	Tail     string              `json:"call_tail"`
	PassP50  []float64           `json:"pass_call_p50_us,omitempty"`
	Unscaled map[string]float64  `json:"unscaled_host_metrics,omitempty"`
	Speed    speedReport         `json:"speed_probe"`
	Problems []string            `json:"problems,omitempty"`
	Gaps     []string            `json:"gaps,omitempty"`
	Idle     []string            `json:"idle_layers,omitempty"`
	Spans    map[string]spanStat `json:"spans,omitempty"`
}

// workloadDef names a workload and builds it from a seed.
type workloadDef struct {
	name string
	new  func(seed uint64) bench
}

// bench is one workload. Every pass replays the same seeded inputs, so
// its simulated outputs and work counts repeat exactly.
type bench interface {
	// setup rebuilds the pass's state: rig, image, seeded inputs.
	setup() error
	// run executes the pass's timed calls.
	run(rec *recorder) error
	// windows returns the number of consecutive calls of a pass over
	// which the tail is taken, and over which throughput is taken.
	windows() (tail, rate int)
	// check verifies the pass's outputs against the references and the
	// structural invariants, returning one problem per missed op.
	check(ref *reference) []string
	// work returns the pass's work counts (equal-work guard).
	work() map[string]uint64
	// simMetrics returns the simulated end-to-end metrics of the pass.
	simMetrics() (map[string]float64, error)
	// teardown drops the rig and the pass's outputs, so that the live
	// heap left is the program's own retained state.
	teardown()
	// traced drives the layers directly until the deadline, checking
	// the outputs against ref, and returns the per-layer metrics.
	traced(ref *reference, deadline time.Time, tr *tracer) (*traceOut, error)
	// shape describes the workload for the report (clients, cache, ...).
	shape() map[string]any
	// reference records the pass's outputs for -writeref.
	reference() *reference
}

var workloads = []workloadDef{
	{"paper-eval", newPaperEval},
	{"cluster-closedloop", newClusterLoop},
	{"storage-mix", newStorageMix},
}

func main() {
	serveIfSpeedProbe()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper-eval, cluster-closedloop or storage-mix")
	seed := fs.Uint64("seed", defaultSeed, "seed of the workload's inputs")
	seconds := fs.Int("seconds", 10, "host seconds to measure")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the measured passes to this path")
	memprofile := fs.String("memprofile", "", "write a heap profile at the end of the run to this path")
	writeRef := fs.Bool("writeref", false, "record this seed's outputs as the workload's reference instead of checking them")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			def = &workloads[i]
		}
	}
	if def == nil || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (paper-eval, cluster-closedloop, storage-mix), -seconds >= 1, -trace 0|1\n")
		return 2
	}
	if err := pinned.apply(); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	ref, err := loadReference(def.name)
	if err != nil && !*writeRef {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	e := env{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Workload:   def.name,
		Seed:       *seed,
		Traced:     *traceFlag == 1,
		Seconds:    *seconds,
		Regime:     pinned,
	}
	b := def.new(*seed)
	if *writeRef {
		if err := recordReference(def.name, *seed, b); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote reference for %s seed %d\n", def.name, *seed)
		return 0
	}
	if ref.Seed != *seed {
		ref.seedBound = false
	}

	deadline := time.Now().Add(time.Duration(*seconds) * time.Second)
	var rep *report
	var tr *tracer
	if e.Traced {
		tr = newTracer()
		rep, err = tracedRun(b, ref, deadline, tr)
	} else {
		rep, err = measuredRun(b, ref, deadline)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", def.name, err)
		return 1
	}
	rep.Env = e
	rep.Shape = b.shape()

	if *memprofile != "" {
		if err := writeHeapProfile(*memprofile); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	base := fmt.Sprintf("%s-seed%d-trace%d", def.name, *seed, *traceFlag)
	if err := writeJSON(filepath.Join(outDir, base+".json"), rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if tr != nil {
		if err := writeJSON(filepath.Join(outDir, base+".spans.json"), tr.spans); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	for _, p := range rep.Problems {
		fmt.Fprintf(stderr, "perfbench: MISS %s\n", p)
	}
	printMetrics(stdout, rep)
	line, err := json.Marshal(rep.Result)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// printMetrics prints one human-readable line per metric, sorted by
// name, before the summary line.
func printMetrics(w io.Writer, rep *report) {
	e := rep.Env
	fmt.Fprintf(w, "# %s seed=%d traced=%v passes=%d cpus=%d gomaxprocs=%d %s commit=%s\n",
		e.Workload, e.Seed, e.Traced, rep.Passes, e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.Commit)
	if rep.Tail != "" {
		fmt.Fprintf(w, "# call_tail_us is %s\n", rep.Tail)
	}
	names := make([]string, 0, len(rep.Result.Metrics))
	for n := range rep.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Result.Metrics[n]
		fmt.Fprintf(w, "%-40s %16.6g %s\n", n, m.Value, m.Unit)
	}
}

// commit names the measured source revision; the launcher passes it in
// when the checkout is a git work tree.
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
