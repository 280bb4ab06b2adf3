package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func TestClusterValidation(t *testing.T) {
	if _, err := NewCluster(0, 10); err == nil {
		t.Fatal("0 shards accepted")
	}
	if _, err := NewCluster(4, 0); err == nil {
		t.Fatal("zero lookahead accepted")
	}
	if _, err := NewCluster(4, -5); err == nil {
		t.Fatal("negative lookahead accepted")
	}
	c, err := NewCluster(4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if c.Shards() != 4 || c.Lookahead() != 10 {
		t.Fatalf("shards = %d lookahead = %v, want 4 and 10", c.Shards(), c.Lookahead())
	}
}

// scriptLookahead is the window width clusterScript assumes.
const scriptLookahead = Duration(130)

// clusterScript drives a seeded random cross-shard workload on c and
// returns a log of every fired event as one string. Each shard runs a
// chain of local events; some events post work to a random other shard
// at a cross-shard delay of at least the lookahead.
func clusterScript(c *Cluster, seed int64) string {
	const lookahead = scriptLookahead
	shards := c.Shards()
	var logs = make([][]string, shards)
	var step func(shard, depth, stream int)
	step = func(shard, depth, stream int) {
		eng := c.Shard(shard)
		logs[shard] = append(logs[shard], fmt.Sprintf("s%d d%d r%d @%v", shard, depth, stream, eng.Now()))
		if depth >= 6 {
			return
		}
		// Local follow-ups, deterministically derived from position.
		rng := rand.New(rand.NewSource(seed + int64(shard*1000+depth*10+stream)))
		n := rng.Intn(3)
		for i := 0; i < n; i++ {
			d := Duration(rng.Intn(200))
			eng.Schedule(d, func() { step(shard, depth+1, stream*10+i) })
		}
		// Cross-shard post at >= lookahead.
		if rng.Intn(2) == 0 {
			dst := rng.Intn(shards)
			if dst != shard {
				at := eng.Now().Add(lookahead + Duration(rng.Intn(300)))
				c.Post(shard, dst, at, func() { step(dst, depth+1, stream*10+7) })
			}
		}
	}
	for s := 0; s < shards; s++ {
		shard := s
		c.Shard(shard).Schedule(Duration(shard), func() { step(shard, 0, 1) })
	}
	c.Run()
	var sb strings.Builder
	for s := range logs {
		for _, line := range logs[s] {
			sb.WriteString(line)
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// TestClusterResetReplaysScript runs the same seeded cross-shard script
// on a fresh cluster and again on that cluster after Reset; the
// per-shard event logs (order and times) and the window counters must
// be identical.
func TestClusterResetReplaysScript(t *testing.T) {
	for _, seed := range []int64{1, 42, 7777} {
		c, err := NewCluster(8, scriptLookahead)
		if err != nil {
			t.Fatal(err)
		}
		fresh, freshStats := clusterScript(c, seed), c.Stats()
		if freshStats.Windows == 0 || freshStats.Steps == 0 || freshStats.Drained == 0 {
			t.Fatalf("seed %d: script left counters at %+v", seed, freshStats)
		}
		c.Reset()
		if got := c.Stats(); got != (ClusterStats{}) {
			t.Fatalf("seed %d: Reset left counters at %+v", seed, got)
		}
		if got := clusterScript(c, seed); got != fresh {
			t.Fatalf("seed %d: log after Reset differs from the fresh cluster's", seed)
		}
		if got := c.Stats(); got != freshStats {
			t.Fatalf("seed %d: counters after Reset %+v, fresh %+v", seed, got, freshStats)
		}
	}
}

// TestClusterStats pins the window counters on a hand-traced run: one
// app-time post, two local events in the first window, and one
// cross-shard post that forms a second window.
func TestClusterStats(t *testing.T) {
	c, err := NewCluster(2, 100)
	if err != nil {
		t.Fatal(err)
	}
	c.Post(1, 0, 5, func() {})
	c.Shard(0).Schedule(20, func() {
		c.Post(0, 1, c.Shard(0).Now().Add(130), func() {})
	})
	// Window 1 is [5, 105): shard 0 fires the app-time post at 5 and
	// the local event at 20. Window 2 is [150, 250): shard 1 fires the
	// cross post.
	c.Run()
	want := ClusterStats{Windows: 2, Steps: 3, Drained: 2}
	if got := c.Stats(); got != want {
		t.Fatalf("stats %+v, want %+v", got, want)
	}
	c.Run()
	if got := c.Stats(); got != want {
		t.Fatalf("idle Run moved stats to %+v, want %+v", got, want)
	}
}

// TestClusterCausalityCheck pins the conservative contract: a
// cross-shard post landing inside the current window panics instead of
// silently racing.
func TestClusterCausalityCheck(t *testing.T) {
	c, err := NewCluster(2, 100)
	if err != nil {
		t.Fatal(err)
	}
	c.Shard(0).Schedule(10, func() {
		// Claims only 20 < lookahead 100 of latency: violates the bound.
		c.Post(0, 1, c.Shard(0).Now().Add(20), func() {})
	})
	defer func() {
		if recover() == nil {
			t.Fatal("causality violation did not panic")
		}
	}()
	c.Run()
}

// TestClusterRepeatedRuns checks the app-time lockstep pattern: staged
// posts between Run calls are applied unchecked, and Run can be called
// repeatedly as quiescent phases alternate with event phases.
func TestClusterRepeatedRuns(t *testing.T) {
	c, err := NewCluster(3, 50)
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]string, 3)
	for round := 0; round < 3; round++ {
		r := round
		for s := 0; s < 3; s++ {
			shard := s
			dst := (shard + 1) % 3
			c.Post(shard, dst, c.Now().Add(1), func() {
				got[dst] = append(got[dst], fmt.Sprintf("r%d->s%d", r, dst))
			})
		}
		c.Run()
	}
	for s := 0; s < 3; s++ {
		want := []string{
			fmt.Sprintf("r0->s%d", s),
			fmt.Sprintf("r1->s%d", s),
			fmt.Sprintf("r2->s%d", s),
		}
		if len(got[s]) != len(want) {
			t.Fatalf("shard %d log %v, want %v", s, got[s], want)
		}
		for i := range want {
			if got[s][i] != want[i] {
				t.Fatalf("shard %d log %v, want %v", s, got[s], want)
			}
		}
	}
}
