package workload

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/faults"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/par"
)

// Cluster recycling: every sweep point needs a multi-host cluster —
// fabric, engine shards with their timer wheels, and per host a
// physical memory, VM system, adapter, kernel pool, and Genie instance
// — and the serial sweep built that whole object graph only to throw
// it away one operating point later. core.Cluster.Reset returns the
// graph to its post-construction state without reallocating frame
// backing stores or event arenas, so the sweep keeps free lists of
// Reset clusters, one per distinct configuration, and points reuse them
// instead of rebuilding. A Reset cluster simulates bit-identically to a
// fresh one, so recycling cannot perturb the sweep digest.

// clusterKey is the comparable identity of a cluster configuration:
// clusters with equal keys are interchangeable after Reset. The cost
// model enters by content fingerprint and the topology by canonical
// string, because neither is comparable by value.
type clusterKey struct {
	model      uint64
	buffering  netsim.InputBuffering
	overlayOff int
	frames     int
	pool       int
	outboard   int
	mtu        int
	demand     bool
	plane      string
	genie      core.Config
	faults     faults.Spec
	topo       string
}

// keyFor normalizes the configuration the same way NewCluster will, so
// explicitly defaulted and zero-valued configs share one free list.
func keyFor(cfg core.ClusterConfig) clusterKey {
	model := cost.Baseline()
	if cfg.Model != nil {
		model = cfg.Model
	}
	plane := mem.DataPlane(mem.Bytes)
	if cfg.Plane != nil {
		plane = cfg.Plane
	}
	genie := cfg.Genie
	if genie == (core.Config{}) {
		genie = core.DefaultConfig()
	}
	frames, pool, outboard := cfg.FramesPerHost, cfg.PoolPages, cfg.OutboardKB
	if frames == 0 {
		frames = 512
	}
	if pool == 0 {
		pool = 64
	}
	if outboard == 0 {
		outboard = 256
	}
	return clusterKey{
		model:      model.Fingerprint(),
		buffering:  cfg.Buffering,
		overlayOff: cfg.OverlayOff,
		frames:     frames,
		pool:       pool,
		outboard:   outboard,
		mtu:        cfg.MTU,
		demand:     cfg.DemandPaging,
		plane:      plane.Name(),
		genie:      genie,
		faults:     cfg.Faults,
		topo: fmt.Sprintf("%d/%v/%x/%x", cfg.Topo.Hosts, cfg.Topo.Pairs,
			math.Float64bits(cfg.Topo.PerByteUS), math.Float64bits(cfg.Topo.FixedUS)),
	}
}

// clusters is the package-wide cluster recycler.
var clusters par.Pool[clusterKey, *core.Cluster]

// SetClusterRecycling enables or disables cluster recycling. Disabling
// drops nothing eagerly — pooled clusters simply stop being handed out
// (and collected); re-enabling resumes reuse. Recycled and fresh
// clusters simulate bit-identically, so the toggle exists for
// benchmarking and fault isolation, not correctness.
func SetClusterRecycling(on bool) { clusters.SetEnabled(on) }

// ClusterRecyclingEnabled reports whether cluster recycling is active.
func ClusterRecyclingEnabled() bool { return clusters.Enabled() }
