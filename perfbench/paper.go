package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/experiments"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/vm"
)

// paper-eval: one cold pass regenerates the paper's Section 7-8
// evaluation through the experiments package, then measures a seeded
// batch of off-grid points that share nothing with the paper grid.
// The batch is stratified so that its cost hardly depends on the seed:
// every (scheme, semantics, offsets) combination gets one length from
// each of offGridLengthBins equal bins of 1..60 KB.
const offGridLengthBins = 4

// paperGen is one figure or table of the evaluation.
type paperGen struct {
	name string
	run  func() (fmt.Stringer, error)
}

func paperGenerators() []paperGen {
	fig := func(name string, f func(experiments.Setup) (experiments.Figure, error)) paperGen {
		return paperGen{name, func() (fmt.Stringer, error) { return f(experiments.Setup{}) }}
	}
	tab := func(name string, f func() (experiments.Table, error)) paperGen {
		return paperGen{name, func() (fmt.Stringer, error) { return f() }}
	}
	return []paperGen{
		fig("Figure 3", experiments.Figure3),
		fig("Figure 4", experiments.Figure4),
		fig("Figure 5", experiments.Figure5),
		fig("Figure 6", experiments.Figure6),
		fig("Figure 7", experiments.Figure7),
		fig("Outboard", experiments.FigureOutboard),
		tab("Figure 3 throughput", func() (experiments.Table, error) { return experiments.Figure3Throughput(experiments.Setup{}) }),
		tab("Table 6", func() (experiments.Table, error) { return experiments.Table6(experiments.Setup{}) }),
		tab("Table 7", func() (experiments.Table, error) { return experiments.Table7(experiments.Setup{}) }),
		tab("Table 8", experiments.Table8),
		tab("OC-12", experiments.TableOC12),
	}
}

// point is one measurement point: a setup, a semantics and a length.
type point struct {
	setup  experiments.Setup
	sem    core.Semantics
	length int
}

// figureGrid lists the latency figures' points (Figures 3, 5, 6, 7 and
// outboard), the grid the simulated latency metrics and the traced
// drive cover besides the off-grid batch.
func figureGrid() []point {
	page := experiments.PageSweep(cost.Baseline().Platform.PageSize)
	sweeps := []struct {
		s       experiments.Setup
		lengths []int
	}{
		{experiments.Setup{Scheme: netsim.EarlyDemux}, page},
		{experiments.Setup{Scheme: netsim.EarlyDemux}, experiments.ShortSweep()},
		{experiments.Setup{Scheme: netsim.Pooled}, page},
		{experiments.Setup{Scheme: netsim.Pooled, AppOffset: 1000}, page},
		{experiments.Setup{Scheme: netsim.OutboardBuffering}, page},
	}
	var out []point
	for _, sw := range sweeps {
		for _, sem := range core.AllSemantics() {
			for _, n := range sw.lengths {
				out = append(out, point{sw.s, sem, n})
			}
		}
	}
	return out
}

// genOffGrid derives the off-grid batch from the seed: for every
// scheme, semantics and device/application offset pair, one length
// drawn from each length bin, skipping page multiples and Figure 5
// lengths, so no point is on the paper grid.
func genOffGrid(seed uint64) []point {
	r := newRNG(seed ^ 0x0ff9)
	schemes := []netsim.InputBuffering{netsim.EarlyDemux, netsim.Pooled, netsim.OutboardBuffering}
	offsets := [][2]int{{0, 0}, {24, 24}, {0, 24}, {24, 0}, {4096, 0}}
	short := map[int]bool{}
	for _, n := range experiments.ShortSweep() {
		short[n] = true
	}
	bin := cost.MaxAAL5Datagram / offGridLengthBins
	var out []point
	for _, sc := range schemes {
		for _, sem := range core.AllSemantics() {
			for _, off := range offsets {
				for b := 0; b < offGridLengthBins; b++ {
					n := b*bin + 1 + r.intn(bin)
					for n%4096 == 0 || short[n] {
						n = b*bin + 1 + r.intn(bin)
					}
					out = append(out, point{
						setup:  experiments.Setup{Scheme: sc, DevOff: off[0], AppOffset: off[1]},
						sem:    sem,
						length: n,
					})
				}
			}
		}
	}
	return out
}

type paperEval struct {
	seed  uint64
	batch []point

	outputs  map[string]string // rendered figure or table per generator
	table7   experiments.Table
	offs     []experiments.Measurement
	perf     experiments.PerfStats
	problems []string
}

func newPaperEval(seed uint64) bench { return &paperEval{seed: seed} }

func (p *paperEval) setup() error {
	experiments.ResetPerf()
	p.batch = genOffGrid(p.seed)
	p.outputs = map[string]string{}
	p.offs = make([]experiments.Measurement, len(p.batch))
	p.problems = nil
	return nil
}

// windows: a call is one generator or the off-grid batch, twelve per
// pass. The tail is taken per window of five passes (60 calls, so p82)
// and throughput per pass. A window lasts well under a second, shorter
// than the host's slow spells, so a spell moves whole windows, as it
// moves the median call, instead of the tail alone; with one call per
// pass, a tail would have to span seconds of identical passes and would
// pick out the spells.
func (p *paperEval) windows() (int, int) {
	n := len(paperGenerators()) + 1
	return 5 * n, n
}

// run is one cold pass: every generator, then the off-grid batch
// fanned across the package Runner. Each generator is one timed call,
// and so is the batch; a call completes the points it requested.
func (p *paperEval) run(rec *recorder) error {
	credited := 0
	credit := func() {
		st := experiments.Perf()
		n := int(st.CacheHits+st.CacheMisses+st.CacheWaits) - credited
		credited += n
		rec.attempted += n
		rec.done(n)
	}
	for _, g := range paperGenerators() {
		var out fmt.Stringer
		err := rec.time(func() error {
			var err error
			out, err = g.run()
			return err
		})
		credit()
		if err != nil {
			p.problems = append(p.problems, fmt.Sprintf("%s: %v", g.name, err))
			continue
		}
		p.outputs[g.name] = out.String()
		if t, ok := out.(experiments.Table); ok && g.name == "Table 7" {
			p.table7 = t
		}
	}
	errs := make([]error, len(p.batch))
	_ = rec.time(func() error {
		return experiments.Runner{Workers: pinned.Runners}.ForEach(len(p.batch), func(i int) error {
			q := p.batch[i]
			p.offs[i], errs[i] = experiments.Measure(q.setup, q.sem, q.length)
			return nil
		})
	})
	credit()
	for i, err := range errs {
		if err != nil {
			p.problems = append(p.problems, fmt.Sprintf("off-grid point %d: %v", i, err))
		}
	}
	p.perf = experiments.Perf()
	return nil
}

func (p *paperEval) reference() *reference {
	ref := &reference{Always: map[string]string{}, Seeded: map[string]string{}}
	for name, out := range p.outputs {
		ref.Always[name] = digest(out)
	}
	var seq strings.Builder
	for _, m := range p.offs {
		seq.WriteString(fp32(m.LatencyUS, m.RxCPUUS, m.TxCPUUS))
	}
	ref.Seeded["offgrid[]"] = seq.String()
	return ref
}

func (p *paperEval) check(ref *reference) []string {
	out := append([]string(nil), p.problems...)
	return append(out, ref.compare(p.reference())...)
}

func (p *paperEval) work() map[string]uint64 {
	return map[string]uint64{
		"points_requested": p.perf.CacheHits + p.perf.CacheMisses + p.perf.CacheWaits,
		"points_simulated": p.perf.CacheMisses,
		"memo_served":      p.perf.CacheHits + p.perf.CacheWaits,
		"offgrid_points":   uint64(len(p.batch)),
	}
}

// simMetrics covers the latency figures' points (served by the memo the
// last pass filled) and the off-grid batch.
func (p *paperEval) simMetrics() (map[string]float64, error) {
	ms := append([]experiments.Measurement(nil), p.offs...)
	for _, q := range figureGrid() {
		m, err := experiments.Measure(q.setup, q.sem, q.length)
		if err != nil {
			return nil, err
		}
		ms = append(ms, m)
	}
	errPct, err := paperErrPct(&p.table7)
	if err != nil {
		return nil, err
	}
	var lat []float64
	var cpu, kb float64
	for _, m := range ms {
		lat = append(lat, m.LatencyUS)
		cpu += m.RxCPUUS + m.TxCPUUS
		kb += float64(m.Bytes) / 1024
	}
	return map[string]float64{
		"sim_p50_us":        quantile(lat, 0.5),
		"sim_p99_us":        quantile(lat, 0.99),
		"sim_cpu_us_per_kb": cpu / kb,
		"paper_err_pct":     errPct,
	}, nil
}

func (p *paperEval) teardown() { p.outputs, p.offs, p.table7 = nil, nil, experiments.Table{} }

func (p *paperEval) shape() map[string]any {
	return map[string]any{
		"unit_call":      "one generator of a cold pass (Figures 3-7, outboard, Figure 3 throughput, Tables 6-8, OC-12) or the off-grid batch",
		"offgrid_points": len(p.batch),
		"figure_points":  len(figureGrid()),
		"runner_workers": pinned.Runners,
		"cache_start":    "cold: experiments.ResetPerf before every pass",
	}
}

// paperErrPct is the mean relative error, in percent, of the
// reproduced Table 7 fits (per-byte and fixed terms of every estimated
// and actual row) against the published ones. A nil table regenerates
// Table 7 first.
func paperErrPct(t *experiments.Table) (float64, error) {
	if t == nil || len(t.Rows) == 0 {
		tab, err := experiments.Table7(experiments.Setup{})
		if err != nil {
			return 0, err
		}
		t = &tab
	}
	var sum float64
	n := 0
	for _, row := range t.Rows {
		for col := 2; col+1 < len(row); col += 2 {
			got, err := parseFit(row[col])
			if err != nil {
				return 0, err
			}
			want, err := parseFit(row[col+1])
			if err != nil {
				return 0, err
			}
			for k := range got {
				if want[k] != 0 {
					sum += math.Abs(got[k]-want[k]) / math.Abs(want[k])
					n++
				}
			}
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("table 7 has no fits")
	}
	return 100 * sum / float64(n), nil
}

// parseFit reads a Table 7 cell, "a B + b" or "b", as {a, b}.
func parseFit(cell string) ([2]float64, error) {
	var fit [2]float64
	fixed := cell
	if a, b, ok := strings.Cut(cell, " B + "); ok {
		v, err := strconv.ParseFloat(a, 64)
		if err != nil {
			return fit, fmt.Errorf("table 7 cell %q: %w", cell, err)
		}
		fit[0], fixed = v, b
	}
	v, err := strconv.ParseFloat(fixed, 64)
	if err != nil {
		return fit, fmt.Errorf("table 7 cell %q: %w", cell, err)
	}
	fit[1] = v
	return fit, nil
}

// traced drives the paper workload layer by layer: one cold harness
// pass with a span per generator (memo and recycler counters), a cold
// experiments.Measure per point, and a direct drive of every point on
// testbeds the benchmark owns (NewTestbed, Reset, Transfer), repeated
// untraced and traced until the deadline.
func (p *paperEval) traced(ref *reference, deadline time.Time, tr *tracer) (*traceOut, error) {
	out := &traceOut{metrics: map[string]float64{}}
	if err := p.setup(); err != nil {
		return nil, err
	}
	passSpan := tr.begin("experiments.pass", -1, -1)
	for _, g := range paperGenerators() {
		if err := tr.call("experiments."+g.name, passSpan, -1, func() error {
			o, err := g.run()
			if err == nil {
				p.outputs[g.name] = o.String()
			}
			return err
		}); err != nil {
			out.problems = append(out.problems, fmt.Sprintf("%s: %v", g.name, err))
		}
	}
	tr.end(passSpan)
	perf := experiments.Perf()
	requested := float64(perf.CacheHits + perf.CacheMisses + perf.CacheWaits)
	m := out.metrics
	m["experiments.memo_hit_ratio"] = ratio(float64(perf.CacheHits+perf.CacheWaits), requested)
	m["experiments.memo_waits"] = float64(perf.CacheWaits)
	m["experiments.recycle_ratio"] = ratio(float64(perf.TestbedsRecycled), float64(perf.TestbedsBuilt+perf.TestbedsRecycled))

	// Cold harness cost per point, serially.
	points := append(figureGrid(), p.batch...)
	experiments.ResetPerf()
	want := make([]experiments.Measurement, len(points))
	for i, q := range points {
		var err error
		if e := tr.call("experiments.Measure", -1, int32(i), func() error {
			want[i], err = experiments.Measure(q.setup, q.sem, q.length)
			return err
		}); e != nil {
			return nil, fmt.Errorf("point %d: %w", i, e)
		}
	}
	m["experiments.measure_us"] = median(tr.totalUS("experiments.Measure"))
	p.offs = want[len(points)-len(p.batch):]
	out.problems = append(out.problems, ref.compare(p.reference())...)

	var layers layerSums
	var plain, traced []float64
	for pass := 0; pass < 3 || time.Now().Before(deadline); pass++ {
		t := tr
		if pass%2 == 0 {
			t = nil
		}
		start := time.Now()
		var sums *layerSums
		if t != nil {
			sums = &layers
			layers.passes++
		}
		probs, err := drivePoints(points, want, t, sums)
		if err != nil {
			return nil, err
		}
		d := time.Since(start).Seconds()
		out.problems = append(out.problems, probs...)
		out.attempted += len(points)
		if t == nil {
			if pass > 0 { // pass 0 warms the caches and heap
				plain = append(plain, d)
			}
		} else {
			traced = append(traced, d)
		}
	}
	for k, v := range layers.metrics() {
		if strings.HasPrefix(k, "sim.") || strings.HasPrefix(k, "mem.") || strings.HasPrefix(k, "vm.") || strings.HasPrefix(k, "netsim.") {
			m[k] = v
		}
	}
	m["core.testbed.build_us"] = median(tr.totalUS("core.NewTestbed"))
	m["core.testbed.reset_us"] = median(tr.totalUS("core.Testbed.Reset"))
	m["core.transfer_us"] = median(tr.totalUS("core.Testbed.Transfer"))
	m["sim.ns_per_step"] = sum(tr.totalUS("core.Testbed.Transfer")) * 1e3 / float64(layers.steps)
	m["trace.overhead_pct"] = 100 * (median(traced)/median(plain) - 1)
	out.idle = []string{"workload", "pagecache", "blockdev", "faults", "core.cluster", "core.reliable", "core.storage"}
	out.gaps = []string{
		"per-point engine, memory, VM and adapter counters of the harness's own testbeds: experiments.Measure hides them, so they come from the benchmark's direct drive of the same points",
	}
	return out, nil
}

// drivePoints replays every point on testbeds the benchmark owns, the
// way experiments.Measure does: one testbed per configuration, Reset
// between points. Each latency must equal the harness's. With sums
// set, it accumulates the layer counters of every point before its
// testbed is Reset.
func drivePoints(points []point, want []experiments.Measurement, tr *tracer, sums *layerSums) ([]string, error) {
	var problems []string
	beds := map[core.TestbedConfig]*core.Testbed{}
	for i, q := range points {
		g := int32(i)
		root := tr.begin("point", -1, g)
		cfg := core.TestbedConfig{
			Buffering:  q.setup.Scheme,
			OverlayOff: q.setup.DevOff,
			Plane:      mem.Symbolic,
		}
		tb, ok := beds[cfg]
		var err error
		if ok {
			err = tr.call("core.Testbed.Reset", root, g, tb.Reset)
		} else {
			err = tr.call("core.NewTestbed", root, g, func() error {
				tb, err = core.NewTestbed(cfg)
				return err
			})
			beds[cfg] = tb
		}
		if err != nil {
			return nil, fmt.Errorf("point %d testbed: %w", i, err)
		}
		lat, err := transferOnce(tb, q, tr, root, g)
		tr.end(root)
		if err != nil {
			problems = append(problems, fmt.Sprintf("point %d (%v %v %dB): %v", i, q.setup.Scheme, q.sem, q.length, err))
			continue
		}
		if lat != want[i].LatencyUS {
			problems = append(problems, fmt.Sprintf("point %d (%v %v %dB): direct latency %v, harness %v", i, q.setup.Scheme, q.sem, q.length, lat, want[i].LatencyUS))
		}
		for _, h := range []*core.Host{tb.A, tb.B} {
			if err := h.Phys.CheckInvariants(); err != nil {
				problems = append(problems, fmt.Sprintf("point %d %s frames: %v", i, h.Name, err))
			}
		}
		if sums != nil {
			sums.addTestbed(tb)
			sums.ops++
		}
	}
	return problems, nil
}

// transferOnce moves one datagram of a pattern payload and verifies the
// delivered data, returning the end-to-end latency.
func transferOnce(tb *core.Testbed, q point, tr *tracer, parent, g int32) (float64, error) {
	sender, receiver := tb.A.Genie.NewProcess(), tb.B.Genie.NewProcess()
	ps := tb.Model.Platform.PageSize
	payload := mem.PatternBuf(mem.NewPatternSource(), 0, q.length)
	var src, dst vm.Addr
	if q.sem.SystemAllocated() {
		r, err := sender.AllocIOBuffer(q.length)
		if err != nil {
			return 0, err
		}
		src = r.Start()
	} else {
		base, err := sender.Brk(q.length + 2*ps)
		if err != nil {
			return 0, err
		}
		dbase, err := receiver.Brk(q.length + 2*ps)
		if err != nil {
			return 0, err
		}
		src, dst = base, dbase+vm.Addr(q.setup.AppOffset%ps)
	}
	if err := sender.WriteBuf(src, payload); err != nil {
		return 0, err
	}
	var o *core.OutputOp
	var in *core.InputOp
	if err := tr.call("core.Testbed.Transfer", parent, g, func() error {
		var err error
		o, in, err = tb.Transfer(sender, receiver, 1, q.sem, src, dst, q.length)
		return err
	}); err != nil {
		return 0, err
	}
	got, err := receiver.ReadBuf(in.Addr, in.N)
	if err != nil {
		return 0, err
	}
	if in.N != q.length || !got.Equal(payload.Slice(0, in.N)) {
		return 0, fmt.Errorf("delivered data differs from the payload (%d of %d bytes)", in.N, q.length)
	}
	return in.CompletedAt.Sub(o.StartedAt).Micros(), nil
}
