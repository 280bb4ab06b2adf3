package sim

import "fmt"

// Cluster advances N engine shards under conservative
// synchronization. Each shard is an independent Engine — typically one
// simulated host — and all cross-shard interaction goes through Post,
// which stages a closure for delivery on the destination shard.
//
// Time advances in barrier windows. Each round the coordinator finds
// the earliest pending event time T across all shards and sets the
// window bound to T + lookahead, where lookahead is the minimum
// cross-shard latency (for a link fabric, the smallest fixed wire
// delay). Within the window every shard runs independently — no other
// shard can affect it before the bound, because any message sent during
// the window arrives at least lookahead after its send time, i.e. at or
// beyond the bound. At the barrier the staged cross-posts are drained
// into their destination shards in a fixed (destination, source, send
// order) sequence, so event sequence numbers — and therefore tie-break
// order — are canonical. That is the whole determinism argument:
// shards are sequentially deterministic, windows make them
// independent, and the drain makes the merge order canonical.
//
// Windows run serially on the caller's goroutine. A window carries too
// little work (about a dozen engine steps in the closed-loop workloads)
// for handing shards to worker goroutines to pay for itself; the
// window structure stays because it is what makes cross-shard delivery
// order canonical.
//
// Null messages are never needed: the window bound is computed from
// global state between barriers rather than negotiated pairwise.
type Cluster struct {
	shards    []*Engine
	lookahead Duration
	outbox    [][][]xpost // [src][dst] staged cross-shard posts
	stats     ClusterStats
}

// ClusterStats counts a cluster's window loop since construction or
// the last Reset.
type ClusterStats struct {
	Windows uint64 // barrier windows run
	Steps   uint64 // engine steps fired inside windows, all shards
	Drained uint64 // cross-shard posts drained into destination shards
}

// xpost is one staged cross-shard delivery.
type xpost struct {
	at Time
	fn func()
}

// NewCluster builds a cluster of n fresh shards. The lookahead must be
// positive: it is the guarantee that cross-shard effects lag by at
// least this much, which is what makes shards independent within a
// window.
func NewCluster(n int, lookahead Duration) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("sim: cluster needs at least 1 shard, got %d", n)
	}
	if lookahead <= 0 {
		return nil, fmt.Errorf("sim: cluster lookahead must be positive, got %v", lookahead)
	}
	c := &Cluster{
		shards:    make([]*Engine, n),
		lookahead: lookahead,
		outbox:    make([][][]xpost, n),
	}
	for i := range c.shards {
		c.shards[i] = New()
		c.outbox[i] = make([][]xpost, n)
	}
	return c, nil
}

// Shards returns the number of shards.
func (c *Cluster) Shards() int { return len(c.shards) }

// Shard returns shard i's engine. Scheduling host-local events directly
// on it is the normal way to drive a cluster; only cross-shard effects
// must go through Post.
func (c *Cluster) Shard(i int) *Engine { return c.shards[i] }

// Lookahead returns the conservative window width.
func (c *Cluster) Lookahead() Duration { return c.lookahead }

// Stats returns the window-loop counters.
func (c *Cluster) Stats() ClusterStats { return c.stats }

// Now returns the maximum clock value across shards.
func (c *Cluster) Now() Time {
	var t Time
	for _, s := range c.shards {
		if n := s.Now(); n > t {
			t = n
		}
	}
	return t
}

// Post stages fn for execution at time at on shard dst. src names the
// shard (or, between Run calls, the host) on whose behalf the post is
// made. Deliveries are applied at the next barrier.
func (c *Cluster) Post(src, dst int, at Time, fn func()) {
	c.outbox[src][dst] = append(c.outbox[src][dst], xpost{at: at, fn: fn})
}

// Run advances all shards until no events remain anywhere, returning
// the final cluster time. It may be called repeatedly: application code
// typically alternates quiescent app-time work (sends, receives, frees
// — which may touch any host) with Run calls.
func (c *Cluster) Run() Time {
	// Posts staged at app time carry no in-window causality guarantee;
	// drain them unchecked before the first window forms.
	c.drain(0, false)
	for {
		next, ok := c.nextEvent()
		if !ok {
			break
		}
		bound := next.Add(c.lookahead)
		for _, s := range c.shards {
			c.stats.Steps += uint64(s.RunBefore(bound))
		}
		c.stats.Windows++
		c.drain(bound, true)
	}
	return c.Now()
}

// Reset returns the cluster to its post-construction state: every shard
// engine rewinds to time zero with no pending events (retaining its
// event arena, heap, and free list warm), and every staged
// cross-shard post is discarded, and the counters clear. The lookahead
// is a construction-time property and survives. A Reset cluster
// advances a subsequent simulation bit-identically to a freshly built
// one.
func (c *Cluster) Reset() {
	for _, s := range c.shards {
		s.Reset()
	}
	for src := range c.outbox {
		for dst := range c.outbox[src] {
			c.outbox[src][dst] = c.outbox[src][dst][:0]
		}
	}
	c.stats = ClusterStats{}
}

// nextEvent returns the earliest live pending event time across shards.
func (c *Cluster) nextEvent() (Time, bool) {
	var min Time
	found := false
	for _, s := range c.shards {
		if t, ok := s.NextEventAt(); ok && (!found || t < min) {
			min, found = t, true
		}
	}
	return min, found
}

// drain applies staged cross-posts in canonical (dst, src, send order)
// sequence. With check set, a post landing before the window bound is a
// causality violation — some component claimed less latency than the
// cluster's lookahead — and panics rather than silently corrupting the
// determinism contract.
func (c *Cluster) drain(bound Time, check bool) {
	for dst := range c.outbox {
		eng := c.shards[dst]
		for src := range c.outbox {
			row := c.outbox[src][dst]
			if len(row) == 0 {
				continue
			}
			for _, p := range row {
				if check && p.at < bound {
					panic(fmt.Sprintf(
						"sim: causality violation: post %d→%d at %v lands inside window bound %v (lookahead %v too large?)",
						src, dst, p.at, bound, c.lookahead))
				}
				eng.ScheduleAt(p.at, p.fn)
			}
			c.stats.Drained += uint64(len(row))
			c.outbox[src][dst] = row[:0]
		}
	}
}
