package workload

import (
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topo"
)

// The RPC fan-out scenario: one client on host 0 scatters a request to
// N servers (hosts 1..N, incast topology — here the fan-*in* is the
// response wave converging back on the client). Up to Pipeline
// operations are in flight at once, so each per-server channel carries
// overlapping requests and the client's receive windows carry
// overlapping responses — the swept depth again. An operation
// completes when the last response lands, so the operation latency is
// the maximum over N legs: straggler amplification. One leg hitting
// RTO recovery puts the entire operation into the slow mode, which is
// why fan-out goes bimodal at shallower depths than the file server's
// independent per-client loops.

// foOp is one scattered operation awaiting its response wave.
type foOp struct {
	issuedAt float64
	legs     int
	failed   bool
}

// foClient is the single scattering client on host 0.
type foClient struct {
	eng  *sim.Engine
	rels []*core.Reliable // client end per server
	cfg  Config
	load float64

	nextOp   int
	toIssue  int
	pending  map[int]*foOp
	inflight []map[uint32]int // per leg: request frame seq → op
	rec      clientRec
}

// start opens the pipeline of scattered operations.
func (c *foClient) start() {
	c.toIssue = c.cfg.Ops
	c.pending = make(map[int]*foOp)
	c.inflight = make([]map[uint32]int, len(c.rels))
	for i := range c.inflight {
		c.inflight[i] = make(map[uint32]int)
	}
	k := min(c.cfg.Pipeline, c.cfg.Ops)
	for s := 0; s < k; s++ {
		c.eng.Schedule(sim.Duration(thinkDelay(c.cfg, c.load, 0, s)/4), c.issue)
	}
}

// issue scatters the next request to every server.
func (c *foClient) issue() {
	if c.toIssue <= 0 {
		return
	}
	c.toIssue--
	op := c.nextOp
	c.nextOp++
	o := &foOp{issuedAt: float64(c.eng.Now()), legs: len(c.rels)}
	c.pending[op] = o
	req := make([]byte, fsRequestBytes)
	for i, r := range c.rels {
		encodeOp(req, i+1, op)
		seq, err := r.Send(req)
		if err != nil {
			o.failed = true
			c.leg(op)
			continue
		}
		c.inflight[i][seq] = op
	}
}

// onResponse retires one leg of an in-flight operation, matched by the
// echoed identity.
func (c *foClient) onResponse(payload []byte) {
	c.rec.bytes += uint64(len(payload))
	c.leg(decodeOp(payload))
}

// legSettled turns an abandoned request frame into a failed leg; the
// server almost surely never saw it, so no response is coming.
func (c *foClient) legSettled(leg int, seq uint32, acked bool) {
	op, ok := c.inflight[leg][seq]
	if !ok {
		return
	}
	delete(c.inflight[leg], seq)
	if acked {
		return
	}
	if o := c.pending[op]; o != nil {
		o.failed = true
		c.leg(op)
	}
}

// leg accounts one retired leg; the last one completes the operation
// and refills the pipeline slot after a think delay.
func (c *foClient) leg(op int) {
	o := c.pending[op]
	if o == nil {
		return
	}
	o.legs--
	if o.legs > 0 {
		return
	}
	delete(c.pending, op)
	now := float64(c.eng.Now())
	if o.failed {
		c.rec.failed++
	} else {
		c.rec.lat = append(c.rec.lat, now-o.issuedAt)
		c.rec.done = append(c.rec.done, now)
	}
	if c.toIssue > 0 {
		c.eng.Schedule(sim.Duration(thinkDelay(c.cfg, c.load, 0, op+c.cfg.Pipeline)), c.issue)
	}
}

// runFanOut executes one fan-out operating point.
func runFanOut(cfg Config, sem core.Semantics, depth int, load float64) (*pointRaw, error) {
	hosts := cfg.Clients + 1
	c, release, err := clusterFor(cfg, depth, cfg.Clients, topo.Incast(hosts))
	if err != nil {
		return nil, err
	}
	defer release()
	client := c.Host(0).Genie.NewProcess()

	fo := &foClient{eng: c.Sim.Shard(0), cfg: cfg, load: load}
	rels := make([]*core.Reliable, 0, 2*cfg.Clients)
	for i := 0; i < cfg.Clients; i++ {
		leg := i
		p := c.Host(i + 1).Genie.NewProcess()
		rCli, rSrv, err := c.ConnectReliable(client, p, sem, cfg.MsgBytes, depth, relConfig(cfg))
		if err != nil {
			return nil, err
		}
		// Each server runs on its own shard and owns a private
		// response buffer.
		resp := make([]byte, cfg.MsgBytes)
		fillPayload(resp)
		rSrv.OnDeliver(func(_ uint32, payload []byte) {
			encodeOp(resp, int(payload[0]), decodeOp(payload))
			_, _ = rSrv.Send(resp)
		})
		rCli.OnDeliver(func(_ uint32, payload []byte) { fo.onResponse(payload) })
		rCli.OnSettled(func(seq uint32, acked bool) { fo.legSettled(leg, seq, acked) })
		fo.rels = append(fo.rels, rCli)
		rels = append(rels, rCli, rSrv)
	}
	fo.start()
	c.Run()

	raw := &pointRaw{clients: []clientRec{fo.rec}}
	sumReliableStats(raw, rels...)
	collectCluster(raw, c, 0)
	return raw, nil
}
