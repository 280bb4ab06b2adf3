package experiments

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/digest"
	"repro/internal/mem"
	"repro/internal/topo"
)

// Cluster experiments: the sharded multi-host engine driven by the two
// canonical communication shapes — incast fan-in (many senders converge
// on one receiver's ports and pools, the stress case for the paper's
// buffering architectures) and ring halo exchange (the bulk-parallel
// steady state). Both run the identical seeded workload twice on
// freshly built clusters, and the delivery digest must be
// byte-identical across the two runs.

// ClusterBenchConfig parameterizes one cluster workload.
type ClusterBenchConfig struct {
	// Hosts is the cluster size; incast uses one receiver plus Hosts-1
	// senders. 0 defaults to 64 for incast, 8 for ring.
	Hosts int
	// Rounds is the number of lockstep send/drain rounds; 0 → 4.
	Rounds int
	// MsgBytes is the payload size per message; 0 → 8192 (incast) or
	// 32768 (ring).
	MsgBytes int
}

func (c ClusterBenchConfig) withDefaults(defaultHosts, defaultMsg int) ClusterBenchConfig {
	if c.Hosts <= 1 {
		c.Hosts = defaultHosts
	}
	if c.Rounds <= 0 {
		c.Rounds = 4
	}
	if c.MsgBytes <= 0 {
		c.MsgBytes = defaultMsg
	}
	return c
}

// ClusterRun is one workload execution.
type ClusterRun struct {
	Digest      string  `json:"digest"`
	Deliveries  uint64  `json:"deliveries"`
	FinalTimeUS float64 `json:"final_time_us"`
	ElapsedSec  float64 `json:"elapsed_sec"`
}

// ClusterReport summarizes a cluster benchmark: both runs and whether
// their digests matched.
type ClusterReport struct {
	Mode          string       `json:"mode"` // "incast" or "ring"
	Hosts         int          `json:"hosts"`
	Rounds        int          `json:"rounds"`
	MsgBytes      int          `json:"msg_bytes"`
	GOMAXPROCS    int          `json:"gomaxprocs"`
	NumCPU        int          `json:"num_cpu"`
	Runs          []ClusterRun `json:"runs"`
	Deterministic bool         `json:"deterministic"`
}

// clusterDigest folds delivery records and final stats into one FNV-64a
// hex string (the shared internal/digest fold). Everything order-
// sensitive goes through here: if a run perturbs a single delivery
// time, payload byte, or stat counter, the digest changes.
type clusterDigest struct {
	*digest.Digest
}

func newClusterDigest() *clusterDigest {
	return &clusterDigest{Digest: digest.New()}
}

func (d *clusterDigest) addf(format string, args ...any) {
	d.Addf(format, args...)
}

// delivery folds one received message into the digest, sampling the
// payload with the shared strided checksum (see digest.PayloadSum for
// why sampling, not summing, is the right cost/discrimination trade).
func (d *clusterDigest) delivery(round, ch, port, n int, at float64, payload []byte) {
	d.Addf("r%d c%d p%d len=%d at=%x sum=%08x\n", round, ch, port, n, at, digest.PayloadSum(payload))
	d.Record()
}

func (d *clusterDigest) hex() string { return d.Hex() }

// stamp writes the per-message identity into the payload head. The body
// keeps its constant fill: re-stamping every byte of every message
// would add no discriminating power the digest's head checksum doesn't
// already have.
func stamp(payload []byte, round, ch, dir int) {
	n := len(payload)
	if n > 16 {
		n = 16
	}
	for j := 0; j < n; j++ {
		payload[j] = byte(round*131 + ch*17 + dir*91 + j)
	}
}

// drainInto consumes every completed message on e, folds each into the
// digest, and reposts its buffer.
func drainInto(d *clusterDigest, round, ch int, e *core.Endpoint) error {
	for {
		m, ok := e.Recv()
		if !ok {
			return nil
		}
		if m.Err() != nil {
			return fmt.Errorf("cluster: delivery error on port %d: %w", e.Port(), m.Err())
		}
		d.delivery(round, ch, e.Port(), len(m.Data()), m.CompletedAt(), m.Data())
		if err := m.Release(); err != nil {
			return err
		}
	}
}

// runIncastOnce executes the incast workload once:
// Hosts-1 senders each push Rounds messages at host 0 in lockstep
// rounds, every round fully drained before the next begins. The
// receiver's NIC, kernel pool, and egress port absorb the full fan-in.
func runIncastOnce(cfg ClusterBenchConfig) (*ClusterRun, error) {
	pages := func(n int) int { return (n + 4095) / 4096 }
	bufPages := pages(cfg.MsgBytes)
	senders := cfg.Hosts - 1
	gcfg := core.DefaultConfig()
	// Aligned/system input buffers for every in-flight message of the
	// full fan-in, with headroom for rotation.
	gcfg.KernelPoolPages = 4*senders*bufPages + 64
	ccfg := core.ClusterConfig{
		TestbedConfig: core.TestbedConfig{
			// Symbolic plane: a million-page incast shouldn't memcpy;
			// figures are plane-invariant.
			Plane: mem.Symbolic,
			// Channel tx+rx windows on the receiver plus kernel pool.
			FramesPerHost: 8*senders*bufPages + gcfg.KernelPoolPages + 256,
			Genie:         gcfg,
		},
		Topo: topo.Incast(cfg.Hosts),
	}
	c, err := core.NewCluster(ccfg)
	if err != nil {
		return nil, err
	}
	recv := c.Host(0).Genie.NewProcess()
	type chanEnd struct{ s, r *core.Endpoint }
	ends := make([]chanEnd, senders)
	for i := 0; i < senders; i++ {
		p := c.Host(i + 1).Genie.NewProcess()
		es, er, err := c.Connect(p, recv, core.EmulatedCopy, cfg.MsgBytes, 2)
		if err != nil {
			return nil, err
		}
		ends[i] = chanEnd{s: es, r: er}
	}
	d := newClusterDigest()
	payload := make([]byte, cfg.MsgBytes)
	for j := range payload {
		payload[j] = byte(j * 7)
	}
	start := time.Now()
	for round := 0; round < cfg.Rounds; round++ {
		for i, e := range ends {
			stamp(payload, round, i, 0)
			if _, err := e.s.Send(payload); err != nil {
				return nil, fmt.Errorf("cluster: incast round %d sender %d: %w", round, i, err)
			}
		}
		c.Run()
		for i, e := range ends {
			if err := drainInto(d, round, i, e.r); err != nil {
				return nil, err
			}
		}
	}
	final := c.Run()
	elapsed := time.Since(start)
	for i := 0; i < cfg.Hosts; i++ {
		d.addf("host%d nic=%+v genie=%+v\n", i, c.Host(i).NIC.Stats(), c.Host(i).Genie.Stats())
	}
	d.addf("final=%x\n", float64(final))
	return &ClusterRun{
		Digest:      d.hex(),
		Deliveries:  d.Records(),
		FinalTimeUS: float64(final),
		ElapsedSec:  elapsed.Seconds(),
	}, nil
}

// runRingOnce executes the halo-exchange workload once: every host
// sends its boundary slab to both ring neighbors each round. Unlike
// incast this uses the Bytes plane, so every page is materialized and
// copied.
func runRingOnce(cfg ClusterBenchConfig) (*ClusterRun, error) {
	pages := func(n int) int { return (n + 4095) / 4096 }
	bufPages := pages(cfg.MsgBytes)
	gcfg := core.DefaultConfig()
	gcfg.KernelPoolPages = 16*bufPages + 64
	ccfg := core.ClusterConfig{
		TestbedConfig: core.TestbedConfig{
			Plane:         mem.Bytes,
			FramesPerHost: 32*bufPages + gcfg.KernelPoolPages + 256,
			Genie:         gcfg,
		},
		Topo: topo.Ring(cfg.Hosts),
	}
	c, err := core.NewCluster(ccfg)
	if err != nil {
		return nil, err
	}
	procs := make([]*core.Process, cfg.Hosts)
	for i := range procs {
		procs[i] = c.Host(i).Genie.NewProcess()
	}
	type duplex struct{ a, b *core.Endpoint }
	links := make([]duplex, len(ccfg.Topo.Pairs))
	for i, p := range ccfg.Topo.Pairs {
		ea, eb, err := c.Connect(procs[p[0]], procs[p[1]], core.EmulatedCopy, cfg.MsgBytes, 2)
		if err != nil {
			return nil, err
		}
		links[i] = duplex{a: ea, b: eb}
	}
	d := newClusterDigest()
	payload := make([]byte, cfg.MsgBytes)
	for j := range payload {
		payload[j] = byte(j * 7)
	}
	start := time.Now()
	for round := 0; round < cfg.Rounds; round++ {
		for i, l := range links {
			stamp(payload, round, i, 0)
			if _, err := l.a.Send(payload); err != nil {
				return nil, fmt.Errorf("cluster: ring round %d link %d fwd: %w", round, i, err)
			}
			stamp(payload, round, i, 1)
			if _, err := l.b.Send(payload); err != nil {
				return nil, fmt.Errorf("cluster: ring round %d link %d rev: %w", round, i, err)
			}
		}
		c.Run()
		for i, l := range links {
			if err := drainInto(d, round, i, l.a); err != nil {
				return nil, err
			}
			if err := drainInto(d, round, i, l.b); err != nil {
				return nil, err
			}
		}
	}
	final := c.Run()
	elapsed := time.Since(start)
	for i := 0; i < cfg.Hosts; i++ {
		d.addf("host%d nic=%+v genie=%+v\n", i, c.Host(i).NIC.Stats(), c.Host(i).Genie.Stats())
	}
	d.addf("final=%x\n", float64(final))
	return &ClusterRun{
		Digest:      d.hex(),
		Deliveries:  d.Records(),
		FinalTimeUS: float64(final),
		ElapsedSec:  elapsed.Seconds(),
	}, nil
}

// runClusterBench executes the workload twice, each time on a freshly
// built cluster, and assembles the report. The first run is the digest
// baseline.
func runClusterBench(mode string, cfg ClusterBenchConfig, once func(ClusterBenchConfig) (*ClusterRun, error)) (*ClusterReport, error) {
	rep := &ClusterReport{
		Mode:       mode,
		Hosts:      cfg.Hosts,
		Rounds:     cfg.Rounds,
		MsgBytes:   cfg.MsgBytes,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	rep.Deterministic = true
	for i := 0; i < 2; i++ {
		run, err := once(cfg)
		if err != nil {
			return nil, err
		}
		if len(rep.Runs) > 0 && (run.Digest != rep.Runs[0].Digest || run.Deliveries != rep.Runs[0].Deliveries) {
			rep.Deterministic = false
		}
		rep.Runs = append(rep.Runs, *run)
	}
	return rep, nil
}

// RunIncast runs the incast determinism benchmark: Hosts-1 senders
// converging on one receiver, digest-compared across two runs.
func RunIncast(cfg ClusterBenchConfig) (*ClusterReport, error) {
	return runClusterBench("incast", cfg.withDefaults(64, 8192), runIncastOnce)
}

// RunRing runs the halo-exchange benchmark on the Bytes plane with the
// same digest comparison.
func RunRing(cfg ClusterBenchConfig) (*ClusterReport, error) {
	return runClusterBench("ring", cfg.withDefaults(8, 32768), runRingOnce)
}
