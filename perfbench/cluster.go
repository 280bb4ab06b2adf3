package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/workload"
)

// cluster-closedloop: the workload package's fileserver and fanout
// points over sim.Cluster, each simulated exactly once per pass, with
// the in-cluster worker count at nproc and one point worker. Wire
// faults fire at a low seeded rate.
const (
	clClients  = 4 // closed-loop clients (fileserver) or fan-out servers
	clPipeline = 4 // requests each client keeps in flight
	clOps      = 48
	clMsgBytes = 2048
	clRTOUS    = 12000
	clThinkUS  = 400   // think time at load 1
	clFaultPct = 0.002 // per frame, each of drop, duplicate, reorder, corrupt
)

var (
	clScenarios = []string{workload.FileServer, workload.FanOut}
	clDepths    = []int{1, 2, 4, 8, 16}
	clLoads     = []float64{0.5, 2}
)

// clPoint is one grid point.
type clPoint struct {
	scenario string
	sem      core.Semantics
	depth    int
	load     float64
}

func (p clPoint) String() string {
	return fmt.Sprintf("%s/%v/d%d/l%g", p.scenario, p.sem, p.depth, p.load)
}

// expected is the number of ops the point's closed loop issues.
func (p clPoint) expected() uint64 {
	if p.scenario == workload.FanOut {
		return clOps
	}
	return clClients * clOps
}

type clusterLoop struct {
	seed   uint64
	points []clPoint

	results  []workload.Point
	digests  []string
	problems []string
}

func newClusterLoop(seed uint64) bench { return &clusterLoop{seed: seed} }

// pointSeed derives grid point i's think-time jitter seed, so points
// do not share one jitter pattern.
func (c *clusterLoop) pointSeed(i int) uint64 {
	return newRNG(c.seed^0x7e57^uint64(i)<<20).next() | 1
}

// faultSpec is grid point i's seeded low-rate wire fault mix. Points
// that differ only in load share a fault stream, so their clusters
// recycle; every other group draws its own, so the share of points a
// fault lands in hardly depends on the run's seed.
func (c *clusterLoop) faultSpec(i int) faults.Spec {
	return faults.Spec{
		Seed:      newRNG(c.seed^0xfa17^uint64(i/len(clLoads))<<20).next() | 1,
		Drop:      clFaultPct,
		Duplicate: clFaultPct,
		Reorder:   clFaultPct,
		Corrupt:   clFaultPct,
	}
}

func (c *clusterLoop) config(i int) workload.Config {
	p := c.points[i]
	return workload.Config{
		Scenario:  p.scenario,
		Semantics: []core.Semantics{p.sem},
		Depths:    []int{p.depth},
		Loads:     []float64{p.load},
		Clients:   clClients,
		Ops:       clOps,
		MsgBytes:  clMsgBytes,
		Pipeline:  clPipeline,
		RTOUS:     clRTOUS,
		ThinkUS:   clThinkUS,
		Faults:    c.faultSpec(i),
		Seed:      c.pointSeed(i),
	}
}

func (c *clusterLoop) setup() error {
	experiments.ResetPerf()
	c.points = c.points[:0]
	for _, sc := range clScenarios {
		for _, sem := range core.AllSemantics() {
			for _, d := range clDepths {
				for _, l := range clLoads {
					c.points = append(c.points, clPoint{sc, sem, d, l})
				}
			}
		}
	}
	c.results = make([]workload.Point, len(c.points))
	c.digests = make([]string, len(c.points))
	c.problems = nil
	return nil
}

// runPoint simulates one grid point with workload.RunParallel.
func (c *clusterLoop) runPoint(i int) error {
	p := c.points[i]
	res, err := workload.RunParallel(c.config(i), pinned.ClusterWorkers, pinned.PointWorkers)
	if err != nil {
		return fmt.Errorf("%v: %w", p, err)
	}
	c.results[i] = res.Schemes[0].Points[0]
	c.digests[i] = res.Digest
	return nil
}

// windows: grid points differ in cost, so tail and throughput are
// taken per pass over the whole grid.
func (c *clusterLoop) windows() (int, int) { return len(c.points), len(c.points) }

func (c *clusterLoop) run(rec *recorder) error {
	for i := range c.points {
		if err := rec.time(func() error { return c.runPoint(i) }); err != nil {
			return err
		}
		c.account(i, rec)
	}
	return nil
}

// account checks point i's structure and counts its ops: every issued
// op must complete; failed or missing ones are misses.
func (c *clusterLoop) account(i int, rec *recorder) {
	p, r := c.points[i], c.results[i]
	want := p.expected()
	if rec != nil {
		rec.attempted += int(want)
		rec.done(int(r.Completed))
	}
	if r.Failed > 0 || r.Completed != want {
		for k := r.Completed; k < want; k++ {
			c.problems = append(c.problems, fmt.Sprintf("%v: op %d of %d not completed (%d failed)", p, k, want, r.Failed))
		}
	}
}

func (c *clusterLoop) reference() *reference {
	ref := &reference{Seeded: map[string]string{}}
	for i, p := range c.points {
		ref.Seeded[p.String()] = c.digests[i]
	}
	return ref
}

func (c *clusterLoop) check(ref *reference) []string {
	out := append([]string(nil), c.problems...)
	return append(out, ref.compare(c.reference())...)
}

func (c *clusterLoop) work() map[string]uint64 {
	var completed, retx uint64
	for _, r := range c.results {
		completed += r.Completed
		retx += r.Retransmits
	}
	return map[string]uint64{
		"points":             uint64(len(c.points)),
		"completed_requests": completed,
		"retransmits":        retx,
	}
}

// simMetrics: workload points expose latency summaries, not samples,
// so sim_p50_us and sim_p99_us are the geometric means over grid points
// of each point's p50 and p99. Point tails span two orders of magnitude
// (window-exhausted points back off to 100-200 ms), and the geometric
// mean follows the share of points a fault lands in smoothly, where a
// median would flip between regimes. Simulated CPU comes from the
// benchmark's echo probe (workload points carry no CPU) on one point
// per semantics.
func (c *clusterLoop) simMetrics() (map[string]float64, error) {
	var p50, p99 []float64
	for _, r := range c.results {
		p50 = append(p50, math.Log(r.Latency.P50))
		p99 = append(p99, math.Log(r.Latency.P99))
	}
	var cpu, kb float64
	clusters := map[int]*core.Cluster{}
	for _, sem := range core.AllSemantics() {
		pr, err := c.probe(clusters, sem, clDepths[len(clDepths)-1], 1, nil, nil, -1, -1)
		if err != nil {
			return nil, err
		}
		cpu += pr.cpuUS
		kb += pr.kb
	}
	errPct, err := paperErrPct(nil)
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"sim_p50_us":        math.Exp(sum(p50) / float64(len(p50))),
		"sim_p99_us":        math.Exp(sum(p99) / float64(len(p99))),
		"sim_cpu_us_per_kb": cpu / kb,
		"paper_err_pct":     errPct,
	}, nil
}

func (c *clusterLoop) teardown() { c.results, c.digests = nil, nil }

func (c *clusterLoop) shape() map[string]any {
	return map[string]any{
		"loop":            "closed: each client issues its next request when a response arrives",
		"clients":         clClients,
		"pipeline_depth":  clPipeline,
		"ops_per_client":  clOps,
		"msg_bytes":       clMsgBytes,
		"scenarios":       clScenarios,
		"depths":          clDepths,
		"loads":           clLoads,
		"points":          len(c.points),
		"cluster_workers": pinned.ClusterWorkers,
		"point_workers":   pinned.PointWorkers,
		"fault_rate":      fmt.Sprintf("%g per frame each of drop, duplicate, reorder, corrupt", clFaultPct),
		"cache_start":     "cold: experiments.ResetPerf (workload memo and cluster free lists) before every pass",
	}
}

// clusterConfig builds a cluster shaped like the workload's fileserver
// points: one server and clClients clients on an incast topology, a
// kernel pool sized above the swept window.
func clusterConfig(depth int, spec faults.Spec) core.ClusterConfig {
	g := core.DefaultConfig()
	perMsg := (clMsgBytes + 64 + 4095) / 4096
	g.KernelPoolPages = 64 + (4*(depth+2)+2*clPipeline)*clClients*perMsg
	return core.ClusterConfig{
		TestbedConfig: core.TestbedConfig{
			Buffering:     netsim.EarlyDemux,
			FramesPerHost: 2*g.KernelPoolPages + 160,
			Genie:         g,
			Faults:        spec,
		},
		Topo:    topo.Incast(clClients + 1),
		Workers: pinned.ClusterWorkers,
	}
}

// probeOut is one echo-probe run.
type probeOut struct {
	completed, failed uint64
	cpuUS, kb         float64
}

// probe runs the benchmark's own closed loop on a cluster it owns:
// clClients clients each keep clPipeline requests in flight against one
// echo server over core.Reliable, clOps requests each, thinking
// clThinkUS/load between a response and the next request. The cluster is
// built on first use of its configuration and Reset afterwards. With
// sums set, the layer counters are accumulated before the Reset.
func (c *clusterLoop) probe(clusters map[int]*core.Cluster, sem core.Semantics, depth int, load float64, tr *tracer, sums *layerSums, parent, g int32) (probeOut, error) {
	var out probeOut
	// One fault stream per depth, so a Reset cluster replays the stream
	// of the configuration it was built with.
	cfg := clusterConfig(depth, c.faultSpec(-depth*len(clLoads)))
	cl, ok := clusters[depth]
	var err error
	if ok {
		err = tr.call("core.Cluster.Reset", parent, g, cl.Reset)
	} else {
		err = tr.call("core.NewCluster", parent, g, func() error {
			cl, err = core.NewCluster(cfg)
			return err
		})
		clusters[depth] = cl
	}
	if err != nil {
		return out, err
	}
	for i := 0; i < cl.Size(); i++ {
		cl.Host(i).Genie.Instr().Enabled = true
	}
	server := cl.Host(0).Genie.NewProcess()
	resp := make([]byte, clMsgBytes) // the server's rels all run on shard 0
	var rels []*core.Reliable
	// Each client's callbacks run on its own shard, so each keeps its
	// own counters; they are summed after the run.
	type client struct{ issued, completed, failed uint64 }
	clients := make([]client, clClients)
	for i := range clients {
		p := cl.Host(i + 1).Genie.NewProcess()
		cli, srv, err := cl.ConnectReliable(p, server, sem, clMsgBytes, depth, core.ReliableConfig{RTO: sim.Duration(clRTOUS)})
		if err != nil {
			return out, err
		}
		rels = append(rels, cli, srv)
		srv.OnDeliver(func(_ uint32, req []byte) {
			copy(resp, req[:4])
			_, _ = srv.Send(resp)
		})
		st := &clients[i]
		var issue func()
		issue = func() {
			if st.issued == clOps {
				return
			}
			req := make([]byte, 32)
			binary.LittleEndian.PutUint32(req, uint32(st.issued))
			st.issued++
			if _, err := cli.Send(req); err != nil {
				st.failed++
				issue()
			}
		}
		eng := cl.Sim.Shard(i + 1)
		think := sim.Duration(clThinkUS / load)
		cli.OnDeliver(func(_ uint32, _ []byte) {
			st.completed++
			eng.Schedule(think, issue)
		})
		cli.OnSettled(func(_ uint32, acked bool) {
			if !acked {
				st.failed++
				eng.Schedule(think, issue)
			}
		})
		// Stagger the pipeline's first requests across a quarter think
		// time, as the workload's clients do.
		for k := 0; k < clPipeline; k++ {
			eng.Schedule(think*sim.Duration(k+1)/(4*clPipeline), issue)
		}
	}
	if err := tr.call("core.Cluster.Run", parent, g, func() error { cl.Run(); return nil }); err != nil {
		return out, err
	}
	for _, st := range clients {
		out.completed += st.completed
		out.failed += clOps - st.completed
	}
	for i := 0; i < cl.Size(); i++ {
		for _, r := range cl.Host(i).Genie.Instr().Records() {
			out.cpuUS += r.Latency.Micros()
		}
	}
	out.kb = float64(out.completed*(32+clMsgBytes)) / 1024
	if sums != nil {
		sums.addCluster(cl)
		for _, r := range rels {
			sums.addReliable(r)
		}
		sums.ops += int(out.completed + out.failed)
	}
	return out, nil
}

// traced alternates untraced and traced passes until the deadline (at
// least one of each). Every point runs through workload.RunParallel;
// fileserver points also run the echo probe, whose cluster the
// benchmark owns, for the counters workload.Run keeps inside.
func (c *clusterLoop) traced(ref *reference, deadline time.Time, tr *tracer) (*traceOut, error) {
	out := &traceOut{metrics: map[string]float64{}}
	var plain, traced []float64
	var layers layerSums
	var completed, shed, retx, drops uint64
	var kernelHWM, queueHWM int
	var recycle float64
	for pass := 0; pass < 3 || time.Now().Before(deadline); pass++ {
		t := tr
		if pass%2 == 0 {
			t = nil
		}
		if err := c.setup(); err != nil {
			return nil, err
		}
		clusters := map[int]*core.Cluster{}
		start := time.Now()
		for i, p := range c.points {
			g := int32(i)
			root := t.begin("point", -1, g)
			if err := t.call("workload.Run", root, g, func() error { return c.runPoint(i) }); err != nil {
				return nil, err
			}
			c.account(i, nil)
			out.attempted += int(p.expected())
			if p.scenario == workload.FileServer {
				var sums *layerSums
				if t != nil {
					sums = &layers
				}
				pr, err := c.probe(clusters, p.sem, p.depth, p.load, t, sums, root, g)
				if err != nil {
					return nil, err
				}
				if pr.failed > 0 {
					c.problems = append(c.problems, fmt.Sprintf("probe %v: %d requests failed", p, pr.failed))
				}
			}
			t.end(root)
		}
		d := time.Since(start).Seconds()
		out.problems = append(out.problems, c.check(ref)...)
		if t == nil {
			if pass > 0 { // pass 0 warms the caches and heap
				plain = append(plain, d)
			}
			continue
		}
		traced = append(traced, d)
		layers.passes++
		for _, r := range c.results {
			completed += r.Completed
			shed += r.Shed
			retx += r.Retransmits
			drops += r.Drops
			kernelHWM = max(kernelHWM, r.KernelHWM)
			queueHWM = max(queueHWM, r.QueueHWM)
		}
		wp := workload.Perf()
		recycle = ratio(float64(wp.ClustersRecycled), float64(wp.ClustersBuilt+wp.ClustersRecycled))
	}
	m := layers.metrics()
	keep := map[string]float64{}
	for _, k := range []string{"sim.steps_per_op", "mem.allocs_per_op", "mem.zeroed_per_op", "mem.deferred_frees_per_op",
		"vm.faults_per_op", "vm.cow_copies_per_op", "vm.tcow_reenables_per_op", "netsim.frames_per_op",
		"netsim.retried_per_op", "faults.fired_per_op"} {
		keep[k] = m[k]
	}
	keep["sim.ns_per_step"] = sum(tr.totalUS("core.Cluster.Run")) * 1e3 / float64(layers.steps)
	keep["core.cluster.build_ms"] = median(tr.totalUS("core.NewCluster")) / 1e3
	keep["core.cluster.reset_ms"] = median(tr.totalUS("core.Cluster.Reset")) / 1e3
	keep["workload.point_ms"] = median(tr.totalUS("workload.Run")) / 1e3
	keep["workload.recycle_ratio"] = recycle
	keep["workload.shed_per_op"] = ratio(float64(shed), float64(completed))
	keep["workload.kernel_hwm_pages"] = float64(kernelHWM)
	keep["workload.queue_hwm"] = float64(queueHWM)
	keep["core.reliable.retransmits_per_op"] = ratio(float64(retx), float64(completed))
	keep["netsim.drops_per_op"] = ratio(float64(drops), float64(completed))
	keep["trace.overhead_pct"] = 100 * (median(traced)/median(plain) - 1)
	out.metrics = keep
	out.idle = []string{"experiments memo", "pagecache", "blockdev", "core.storage"}
	out.gaps = []string{
		"sim.Cluster window count and barrier wait: no public counter; needs tracing inside the program",
		"time inside core.Reliable (retransmit timers, dedup): runs inside Cluster.Run events",
		"engine steps, memory, VM, adapter retries and fired faults of workload.Run's own clusters: kept inside the workload package, so they come from the benchmark's echo probe on fileserver-shaped clusters",
	}
	return out, nil
}
