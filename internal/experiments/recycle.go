package experiments

import (
	"repro/internal/core"
	"repro/internal/par"
)

// Testbed recycling: every cache miss needs a testbed — two hosts × 512
// frames plus engine, VM, and netsim setup — and builds it only to
// throw it away one datagram later. Testbed.Reset returns the whole
// object graph to its post-construction state without reallocating
// frame backing stores, so cache misses reuse Reset testbeds, one free
// list per distinct core.TestbedConfig (comparable by value), instead
// of rebuilding. A Reset testbed simulates bit-identically to a fresh
// one, so recycling cannot perturb output.
var testbeds par.Pool[core.TestbedConfig, *core.Testbed]

// SetRecycling enables or disables testbed and storage-rig recycling.
// Disabling drops nothing eagerly — pooled objects simply stop being
// handed out (and collected); re-enabling resumes reuse. Recycled and
// fresh testbeds simulate bit-identically, so the toggle exists for
// benchmarking and fault isolation, not correctness.
func SetRecycling(on bool) { testbeds.SetEnabled(on); storageRigs.SetEnabled(on) }

// RecyclingEnabled reports whether testbed recycling is active.
func RecyclingEnabled() bool { return testbeds.Enabled() }

// measureTestbedConfig is the testbed configuration Measure uses for a
// given Setup. It must stay a pure function of the Setup fields that
// are part of the cache key.
func measureTestbedConfig(s Setup) core.TestbedConfig {
	return core.TestbedConfig{
		Model:      s.model(),
		Buffering:  s.Scheme,
		OverlayOff: s.DevOff,
		Genie:      s.Genie,
		Plane:      s.plane(),
		Faults:     s.Faults,
	}
}
