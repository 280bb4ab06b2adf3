package genie

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/topo"
)

// Topology describes an N-host network shape: a host count plus the set
// of host pairs that may open channels through the switch fabric. Use
// the constructors below, or build one directly for a custom shape.
type Topology = topo.Spec

// Ring connects host i to host (i+1) mod n — the halo-exchange shape of
// bulk-parallel applications.
func RingTopology(n int) Topology { return topo.Ring(n) }

// Incast connects hosts 1..n-1 to host 0 — the fan-in shape where many
// senders converge on one receiver's ports and buffer pools.
func IncastTopology(n int) Topology { return topo.Incast(n) }

// FullMesh connects every host pair.
func FullMeshTopology(n int) Topology { return topo.FullMesh(n) }

// Cluster is a simulated N-host network: every host configured like a
// testbed host, attached to a store-and-forward switch fabric, each
// advancing on its own engine shard. Shards advance serially in
// conservative synchronization windows.
type Cluster struct {
	c *core.Cluster
}

// NewCluster builds an N-host network with the given topology. The
// usual options apply per host; WithTracer is rejected, since a trace
// sink is one time-ordered stream while each shard keeps its own clock.
func NewCluster(t Topology, opts ...Option) (*Cluster, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	if o.sink != nil {
		return nil, fmt.Errorf("genie: NewCluster does not support WithTracer: a trace sink is one time-ordered stream, but each cluster shard keeps its own clock")
	}
	if o.modelSet {
		p, nt := o.platform, o.network
		if p.Name == "" {
			p = cost.MicronP166
		}
		if nt.Name == "" {
			nt = cost.CreditNetOC3
		}
		o.cfg.Model = cost.NewModel(p, nt)
	}
	c, err := core.NewCluster(core.ClusterConfig{
		TestbedConfig: o.cfg,
		Topo:          t,
	})
	if err != nil {
		return nil, err
	}
	return &Cluster{c: c}, nil
}

// Size returns the number of hosts.
func (c *Cluster) Size() int { return c.c.Size() }

// Host returns host i of the topology.
func (c *Cluster) Host(i int) *Host { return &Host{c.c.Host(i)} }

// PageSize returns the hosts' page size in bytes.
func (c *Cluster) PageSize() int { return c.c.Model.Platform.PageSize }

// Run advances the whole cluster until no events remain, returning the
// final simulated time.
func (c *Cluster) Run() Time { return c.c.Run() }

// Now returns the maximum simulated time across hosts.
func (c *Cluster) Now() Time { return c.c.Now() }

// Connect opens a bidirectional windowed channel between processes on
// two hosts that are adjacent in the topology. Ports and fabric routes
// are allocated automatically; the returned endpoints work exactly like
// the testbed's NewChannel endpoints.
func (c *Cluster) Connect(a, b *Process, sem Semantics, bufSize, window int) (*Endpoint, *Endpoint, error) {
	return c.c.Connect(a, b, sem, bufSize, window)
}
