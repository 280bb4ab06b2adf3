package main

import (
	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/pagecache"
	"repro/internal/vm"
)

// layerSums accumulates the public counters of the layers under the
// rigs a traced drive owns, read at unit boundaries (before each Reset
// or at the end of a pass), and reduces them to per-op metrics.
type layerSums struct {
	ops       int     // unit ops the counters were accumulated over
	passes    int     // passes of the workload's inputs they cover
	steps     uint64  // engine events
	elapsedUS float64 // simulated time covered

	mem   mem.Stats
	vm    vm.SysStats
	nic   netsim.Stats
	fired uint64 // injected faults
	rel   core.ReliableStats
	pc    pagecache.Counters
	dev   blockdev.Stats
	sto   core.StorageStats
}

func (l *layerSums) addHost(h *core.Host) {
	m := h.Phys.Stats()
	l.mem.Allocs += m.Allocs
	l.mem.Zeroed += m.Zeroed
	l.mem.DeferredFrees += m.DeferredFrees
	v := h.Sys.Stats()
	l.vm.Faults += v.Faults
	l.vm.COWCopies += v.COWCopies + v.TCOWCopies
	l.vm.TCOWReenables += v.TCOWReenables
	n := h.NIC.Stats()
	l.nic.TxFrames += n.TxFrames
	l.nic.Dropped += n.Dropped + n.PoolFailures
	l.nic.Retried += n.Retried
}

// addTestbed reads a pairwise testbed's engine and both hosts.
func (l *layerSums) addTestbed(tb *core.Testbed) {
	l.steps += tb.Eng.Steps()
	l.elapsedUS += float64(tb.Eng.Now())
	l.addHost(tb.A)
	l.addHost(tb.B)
}

// addCluster reads every shard engine, host and injector of a cluster.
func (l *layerSums) addCluster(c *core.Cluster) {
	l.elapsedUS += float64(c.Now())
	for i := 0; i < c.Size(); i++ {
		l.steps += c.Sim.Shard(i).Steps()
		l.addHost(c.Host(i))
		if inj := c.Injector(i); inj != nil {
			l.fired += inj.Stats().Total()
		}
	}
}

func (l *layerSums) addReliable(r *core.Reliable) {
	s := r.Stats()
	l.rel.Retransmits += s.Retransmits
	l.rel.GaveUp += s.GaveUp
}

func (l *layerSums) addStorage(st *core.Storage) {
	c := st.Cache().Counters()
	l.pc.Hits += c.Hits
	l.pc.Misses += c.Misses
	l.pc.ReadAheads += c.ReadAheads
	l.pc.Evictions += c.Evictions
	l.pc.Writebacks += c.Writebacks
	l.pc.Bursts += c.Bursts
	d := st.Device().Stats()
	l.dev.BlocksRead += d.BlocksRead
	l.dev.BlocksWritten += d.BlocksWritten
	l.dev.Seeks += d.Seeks
	l.dev.BusyUS += d.BusyUS
	s := st.Stats()
	l.sto.Writes += s.Writes
	l.sto.PageFlips += s.PageFlips
	l.sto.Donations += s.Donations
	l.sto.DirectBlocks += s.DirectBlocks
}

// metrics reduces the sums to the per-layer metrics they feed.
func (l *layerSums) metrics() map[string]float64 {
	ops := float64(l.ops)
	per := func(v uint64) float64 { return ratio(float64(v), ops) }
	perPass := func(v uint64) float64 { return ratio(float64(v), float64(l.passes)) }
	return map[string]float64{
		"sim.steps_per_op":                 per(l.steps),
		"mem.allocs_per_op":                per(l.mem.Allocs),
		"mem.zeroed_per_op":                per(l.mem.Zeroed),
		"mem.deferred_frees_per_op":        per(l.mem.DeferredFrees),
		"vm.faults_per_op":                 per(l.vm.Faults),
		"vm.cow_copies_per_op":             per(l.vm.COWCopies),
		"vm.tcow_reenables_per_op":         per(l.vm.TCOWReenables),
		"netsim.frames_per_op":             per(l.nic.TxFrames),
		"netsim.drops_per_op":              per(l.nic.Dropped),
		"netsim.retried_per_op":            per(l.nic.Retried),
		"faults.fired_per_op":              per(l.fired),
		"core.reliable.retransmits_per_op": per(l.rel.Retransmits + l.rel.GaveUp),
		"pagecache.hit_ratio":              ratio(float64(l.pc.Hits), float64(l.pc.Hits+l.pc.Misses)),
		"pagecache.evictions_per_op":       per(l.pc.Evictions),
		"pagecache.readaheads_per_miss":    ratio(float64(l.pc.ReadAheads), float64(l.pc.Misses)),
		"pagecache.writebacks_per_write":   ratio(float64(l.pc.Writebacks), float64(l.sto.Writes)),
		"pagecache.bursts":                 perPass(l.pc.Bursts),
		"blockdev.seeks_per_op":            per(l.dev.Seeks),
		"blockdev.blocks_per_op":           per(l.dev.BlocksRead + l.dev.BlocksWritten),
		"blockdev.busy_frac":               ratio(l.dev.BusyUS, l.elapsedUS),
		"core.storage.page_flips":          perPass(l.sto.PageFlips),
		"core.storage.donations":           perPass(l.sto.Donations),
		"core.storage.direct_blocks":       perPass(l.sto.DirectBlocks),
	}
}
