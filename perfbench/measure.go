package main

import (
	"fmt"
	"maps"
	"math"
	"runtime"
	"slices"
	"time"
)

// endToEnd lists the untraced metrics and their units. Every workload
// reports every one; README.md gives each workload's definition.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"call_p50_us", "us"},
	{"call_tail_us", "us"},
	{"alloc_mb", "MB"},
	{"retained_heap_mb", "MB"},
	{"completed_frac", "frac"},
	{"sim_p50_us", "us"},
	{"sim_p99_us", "us"},
	{"sim_cpu_us_per_kb", "us/KB"},
	{"paper_err_pct", "%"},
}

// perLayer lists the traced metrics and their units. A layer a workload
// leaves idle reports 0 there.
var perLayer = []struct{ name, unit string }{
	{"experiments.memo_hit_ratio", "frac"},
	{"experiments.memo_waits", "count"},
	{"experiments.recycle_ratio", "frac"},
	{"experiments.measure_us", "us"},
	{"core.testbed.build_us", "us"},
	{"core.testbed.reset_us", "us"},
	{"core.transfer_us", "us"},
	{"core.cluster.build_ms", "ms"},
	{"core.cluster.reset_ms", "ms"},
	{"core.reliable.retransmits_per_op", "count"},
	{"core.storage.read_us", "us"},
	{"core.storage.write_us", "us"},
	{"core.storage.sendfile_us", "us"},
	{"core.storage.page_flips", "count"},
	{"core.storage.donations", "count"},
	{"core.storage.direct_blocks", "count"},
	{"core.storage.sim_read_p50_us", "us"},
	{"core.storage.sim_read_p99_us", "us"},
	{"core.storage.sim_write_p50_us", "us"},
	{"core.storage.sim_write_p99_us", "us"},
	{"sim.steps_per_op", "count"},
	{"sim.ns_per_step", "ns"},
	{"sim.run_us", "us"},
	{"mem.allocs_per_op", "count"},
	{"mem.zeroed_per_op", "count"},
	{"mem.deferred_frees_per_op", "count"},
	{"vm.faults_per_op", "count"},
	{"vm.cow_copies_per_op", "count"},
	{"vm.tcow_reenables_per_op", "count"},
	{"netsim.frames_per_op", "count"},
	{"netsim.drops_per_op", "count"},
	{"netsim.retried_per_op", "count"},
	{"workload.point_ms", "ms"},
	{"workload.recycle_ratio", "frac"},
	{"workload.shed_per_op", "count"},
	{"workload.kernel_hwm_pages", "pages"},
	{"workload.queue_hwm", "count"},
	{"pagecache.hit_ratio", "frac"},
	{"pagecache.evictions_per_op", "count"},
	{"pagecache.readaheads_per_miss", "count"},
	{"pagecache.writebacks_per_write", "count"},
	{"pagecache.bursts", "count"},
	{"blockdev.seeks_per_op", "count"},
	{"blockdev.blocks_per_op", "count"},
	{"blockdev.busy_frac", "frac"},
	{"faults.fired_per_op", "count"},
	{"trace.overhead_pct", "%"},
}

// setupBudget is how long a run sets up before each pass: it repeats
// the set-up, at least once, until this much time has passed, and the
// last set-up is the pass's own. A set-up of tens of µs varies by 2x
// from one to the next, so the cheap ones need many samples.
const setupBudget = 5 * time.Millisecond

// recorder collects one pass's timed calls.
type recorder struct {
	calls     []float64 // host µs per unit call
	ops       []int     // ops each call completed
	attempted int       // ops attempted
}

// time runs fn as one timed unit call; done credits its ops.
func (r *recorder) time(fn func() error) error {
	t := time.Now()
	err := fn()
	r.calls = append(r.calls, float64(time.Since(t).Nanoseconds())/1e3)
	r.ops = append(r.ops, 0)
	return err
}

// done credits n completed ops to the last timed call.
func (r *recorder) done(n int) { r.ops[len(r.ops)-1] += n }

// measuredRun repeats setup + timed pass + check until the deadline and
// reduces the passes to the end-to-end metrics. Passes replay identical
// inputs; a pass whose work counts differ from the first is a miss.
//
// Host times are scaled to the reference host speed by the speed probe
// (see speed.go), timed before every pass: a pass and its set-ups are
// scaled by the probe times around them. The report keeps the unscaled
// figures and the probe times.
func measuredRun(b bench, ref *reference, deadline time.Time) (*report, error) {
	pr, err := startSpeedProbe()
	if err != nil {
		return nil, err
	}
	defer pr.stop()
	rep := &report{}
	var setups, allocs, calls, probes []float64
	var ops, passAt, setAt []int // passAt, setAt: a pass's first call and set-up
	var work0 map[string]uint64
	attempted, failed, w, rw := 0, 0, 0, 0
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		setAt = append(setAt, len(setups))
		for t := time.Now(); len(setups) == setAt[pass] || time.Since(t) < setupBudget; {
			runtime.GC()
			t0 := time.Now()
			if err := b.setup(); err != nil {
				return nil, fmt.Errorf("pass %d setup: %w", pass, err)
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		us, err := pr.measure()
		if err != nil {
			return nil, err
		}
		probes = append(probes, us)
		w, rw = b.windows()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		rec := &recorder{}
		if err := b.run(rec); err != nil {
			return nil, fmt.Errorf("pass %d: %w", pass, err)
		}
		runtime.ReadMemStats(&ms1)
		allocs = append(allocs, float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6)
		passAt = append(passAt, len(calls))
		calls = append(calls, rec.calls...)
		ops = append(ops, rec.ops...)
		rep.PassP50 = append(rep.PassP50, median(rec.calls))

		problems := b.check(ref)
		wk := b.work()
		if work0 == nil {
			work0 = wk
		} else if !maps.Equal(work0, wk) {
			problems = append(problems, fmt.Sprintf("pass %d: work counts %v differ from pass 0's %v", pass, wk, work0))
		}
		for _, p := range problems {
			rep.Problems = append(rep.Problems, fmt.Sprintf("pass %d: %s", pass, p))
		}
		attempted += rec.attempted
		failed += min(len(problems), rec.attempted)
		rep.Passes++
	}
	if err := pr.stop(); err != nil {
		return nil, err
	}

	scaledSetups := scaleBySpeed(setups, append(setAt, len(setups)), probes)
	scaledCalls := scaleBySpeed(calls, append(passAt, len(calls)), probes)
	m, tailName := hostMetrics(scaledSetups, scaledCalls, ops, w, rw)
	rep.Tail = tailName
	rep.Unscaled, _ = hostMetrics(setups, calls, ops, w, rw)
	rep.Speed = speedReport{NominalUS: speedNominalUS, MedianUS: median(probes), PerPassUS: probes}
	rep.Work = work0
	m["alloc_mb"] = median(allocs)
	m["completed_frac"] = float64(attempted-failed) / float64(attempted)
	sim, err := b.simMetrics()
	if err != nil {
		return nil, err
	}
	maps.Copy(m, sim)

	// Drop the rig and the run's own samples, whose size follows the
	// number of passes the host fitted in. Two collections: the first
	// moves sync.Pool contents to the victim caches, the second frees
	// them, so only the program's retained state remains.
	b.teardown()
	setups, allocs, calls, scaledSetups, scaledCalls, ops = nil, nil, nil, nil, nil, nil
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["retained_heap_mb"] = float64(ms.HeapAlloc) / 1e6
	rep.Result = result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   withUnits(m, endToEnd),
	}
	return rep, nil
}

// scaleBySpeed returns host times xs at the reference host speed. Pass
// p's times are xs[at[p]:at[p+1]]; the pass runs between probe times
// probes[p] and probes[p+1] and is scaled by speedNominalUS over the
// median of the two probe times before it and the two after, so that
// one probe a preemption slowed does not skew a pass.
func scaleBySpeed(xs []float64, at []int, probes []float64) []float64 {
	out := slices.Clone(xs)
	for p := 0; p+1 < len(at); p++ {
		f := speedNominalUS / median(probes[max(0, p-1):min(len(probes), p+3)])
		for i := at[p]; i < at[p+1]; i++ {
			out[i] *= f
		}
	}
	return out
}

// hostMetrics reduces a run's set-up and call times to setup_s,
// ops_per_s, call_p50_us and call_tail_us, and names the tail taken.
//
// Throughput and tail are taken over windows of consecutive calls (see
// bench.windows): call_tail_us is the median of the tail windows' tails
// and ops_per_s the median of the rate windows' throughputs, so a stall
// of the host that hits a few calls moves one window, not the run's
// figure. Windows run over the run's calls in order and hold whole
// passes, or a pass holds a whole number of them.
func hostMetrics(setups, calls []float64, ops []int, w, rw int) (map[string]float64, string) {
	var tails, rates []float64
	for i := 0; w > 10 && i+w <= len(calls); i += w {
		t, _ := tailOf(calls[i : i+w])
		tails = append(tails, t)
	}
	for i := 0; i+rw <= len(calls); i += rw {
		rates = append(rates, float64(sumInts(ops[i:i+rw]))/sum(calls[i:i+rw])*1e6)
	}
	tail := median(tails)
	name := fmt.Sprintf("the tail of each window of %d calls, median of %d windows", w, len(tails))
	if w <= 10 || len(tails) == 0 {
		var of string
		tail, of = tailOf(calls)
		name = of + " over all calls of the run"
	}
	return map[string]float64{
		"setup_s":      median(setups),
		"ops_per_s":    median(rates),
		"call_p50_us":  median(calls),
		"call_tail_us": tail,
	}, name
}

// traceOut is what a workload's traced drive returns.
type traceOut struct {
	metrics   map[string]float64
	attempted int
	problems  []string
	idle      []string // layers the workload leaves idle
	gaps      []string // numbers out of reach from outside the program
}

// tracedRun drives the layers directly with spans on and reports the
// per-layer metrics.
func tracedRun(b bench, ref *reference, deadline time.Time, tr *tracer) (*report, error) {
	out, err := b.traced(ref, deadline, tr)
	if err != nil {
		return nil, err
	}
	failed := min(len(out.problems), out.attempted)
	rep := &report{
		Passes:   1,
		Problems: out.problems,
		Gaps:     out.gaps,
		Result: result{
			Correct:   failed == 0,
			Attempted: out.attempted,
			Failed:    failed,
			Metrics:   withUnits(out.metrics, perLayer),
		},
	}
	rep.Idle = out.idle
	rep.Spans = tr.summary()
	return rep, nil
}

// withUnits attaches units to the listed metrics; a listed metric the
// map lacks reports 0 (its layer is idle on this workload).
func withUnits(m map[string]float64, list []struct{ name, unit string }) map[string]metric {
	out := make(map[string]metric, len(list))
	for _, e := range list {
		out[e.name] = metric{Value: m[e.name], Unit: e.unit}
	}
	return out
}

// median returns the nearest-rank median (0 for no samples).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// tailOf returns the highest nearest-rank percentile of xs with at
// least ten samples beyond it, and its name with the sample count.
func tailOf(xs []float64) (float64, string) {
	n := len(xs)
	s := slices.Clone(xs)
	slices.Sort(s)
	if n <= 10 {
		return s[n-1], fmt.Sprintf("max of n=%d", n)
	}
	return s[n-11], fmt.Sprintf("p%.4g of n=%d", 100*float64(n-10)/float64(n), n)
}

func sumInts(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio returns a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
