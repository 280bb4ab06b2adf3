package main

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mem"
	"repro/internal/vm"
)

// storage-mix: a seeded, single-issuer closed loop of file reads,
// writes and a few sendfiles through core.Storage under all eight
// semantics. Block choice is skewed: most ops hit a hot set that fits
// the page cache, the rest spread over a file several times the cache.
const (
	stoCachePages = 96
	stoFileBlocks = 512 // 5.3x the cache
	stoHotBlocks  = 64  // fits the cache
	stoHotPct     = 80  // share of ops inside the hot set
	stoReadPct    = 60
	stoWritePct   = 35 // the rest are sendfiles
	stoReadAhead  = 4
	stoDirty      = 24 // threshold writeback, in dirty pages
	stoOps        = 6000
	stoMixBlock   = 40 // ops per stratified block of the mix
	stoMaxLen     = 60 * 1024
	stoFrames     = 1024
	stoPort       = 7
	stoRecycleCap = 8 // regions a process keeps in its region cache
)

type fileOpKind uint8

const (
	opRead fileOpKind = iota
	opWrite
	opSendfile
)

func (k fileOpKind) String() string { return [...]string{"read", "write", "sendfile"}[k] }

// fileOp is one generated file op.
type fileOp struct {
	kind   fileOpKind
	sem    core.Semantics
	block  int
	length int
	src    int // offset of a write's data in the pattern
}

// fileOpOut is one completed op's simulated outcome.
type fileOpOut struct {
	kind     fileOpKind
	length   int
	cpu, lat float64
}

type storageMix struct {
	seed uint64
	ops  []fileOp

	// rig, rebuilt by every setup
	tb      *core.Testbed
	st      *core.Storage
	pa, pb  *core.Process
	bufA    vm.Addr
	bufB    vm.Addr
	shadow  []byte // expected file contents
	pattern []byte // source of write data

	outs     []fileOpOut
	scratch  []byte // read-back buffer
	media    []byte // device snapshot before a direct read
	problems []string
	devFP    string
	steps    uint64
	// staleDirect counts direct (share-family) reads that returned the
	// device's blocks while the page cache held newer dirty data for
	// them: the direct path bypasses the cache without flushing it.
	staleDirect int
}

func newStorageMix(seed uint64) bench { return &storageMix{seed: seed} }

// genFileOps derives the op sequence from the seed. The mix is
// stratified so that its cost hardly depends on the seed: every block of
// stoMixBlock ops holds the exact kind and sub-page shares in a seeded
// order, and every run of eight ops uses each semantics once.
func genFileOps(seed uint64, n int) []fileOp {
	r := newRNG(seed ^ 0x5707a6e)
	shuffle := func(n int, swap func(i, j int)) {
		for j := n - 1; j > 0; j-- {
			swap(j, r.intn(j+1))
		}
	}
	sems := core.AllSemantics()
	block := make([]fileOp, stoMixBlock)
	for i := range block {
		switch {
		case i < stoMixBlock*stoReadPct/100:
			block[i].kind = opRead
		case i < stoMixBlock*(stoReadPct+stoWritePct)/100:
			block[i].kind = opWrite
		default:
			block[i].kind = opSendfile
		}
	}
	ops := make([]fileOp, 0, n)
	for len(ops) < n {
		for i := range block {
			block[i].length = 4096 + r.intn(stoMaxLen-4096+1)
			if i%4 == 0 {
				block[i].length = 64 + r.intn(4096-64) // a quarter sub-page
			}
		}
		shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for i := range block {
			op := block[i]
			if len(ops)%len(sems) == 0 {
				shuffle(len(sems), func(i, j int) { sems[i], sems[j] = sems[j], sems[i] })
			}
			op.sem = sems[len(ops)%len(sems)]
			span := (op.length + 4095) / 4096
			if r.intn(100) < stoHotPct {
				op.block = r.intn(stoHotBlocks - span + 1)
			} else {
				op.block = r.intn(stoFileBlocks - span + 1)
			}
			op.src = r.intn(4096)
			ops = append(ops, op)
		}
	}
	return ops[:n]
}

func (s *storageMix) setup() error {
	experiments.ResetPerf()
	s.ops = genFileOps(s.seed, stoOps)
	tb, err := core.NewTestbed(core.TestbedConfig{FramesPerHost: stoFrames, Plane: mem.Bytes})
	if err != nil {
		return err
	}
	st, err := core.NewStorage(tb.A, core.DiskConfig{
		DiskBlocks:     stoFileBlocks,
		CachePages:     stoCachePages,
		ReadAhead:      stoReadAhead,
		DirtyThreshold: stoDirty,
	})
	if err != nil {
		return err
	}
	bs := st.Device().BlockSize()
	img := make([]byte, stoFileBlocks*bs)
	r := newRNG(s.seed ^ 0x1a6e)
	for i := 0; i < len(img); i += 8 {
		v := r.next()
		for j := 0; j < 8; j++ {
			img[i+j] = byte(v >> (8 * j))
		}
	}
	for b := 0; b < stoFileBlocks; b++ {
		if err := st.Device().Load(b, mem.BufBytes(img[b*bs:(b+1)*bs])); err != nil {
			return err
		}
	}
	s.shadow = bytes.Clone(img)
	s.pattern = make([]byte, stoMaxLen+4096)
	for i := range s.pattern {
		s.pattern[i] = byte(r.next())
	}
	s.tb, s.st = tb, st
	s.pa, s.pb = tb.A.Genie.NewProcess(), tb.B.Genie.NewProcess()
	if s.bufA, err = s.pa.Brk(stoMaxLen + bs); err != nil {
		return err
	}
	if s.bufB, err = s.pb.Brk(stoMaxLen + bs); err != nil {
		return err
	}
	// Warm the cache with the hot set, so the timed ops start from the
	// steady state rather than from empty media.
	for b := 0; b < stoHotBlocks; b += 8 {
		op, err := st.FileRead(s.pa, core.Copy, b, 8*bs, s.bufA)
		if err != nil {
			return err
		}
		tb.Run()
		if !op.Done || op.Err != nil {
			return fmt.Errorf("warm-up read at block %d: %v", b, op.Err)
		}
	}
	s.outs = s.outs[:0]
	s.scratch = make([]byte, stoMaxLen)
	s.media = make([]byte, 0, stoMaxLen+bs)
	s.problems = nil
	s.staleDirect = 0
	return nil
}

// windows: the tail is taken over windows of 200 file ops (p95) and
// throughput over windows of 10. A file op lasts tens of µs, shorter
// than a scheduler time slice, so on a shared host a preemption lands
// on single ops: a p99 window or a 100-op throughput window is then
// set by how often the host preempts the process, and the shorter
// windows are set by the program.
func (s *storageMix) windows() (int, int) { return 200, 10 }

func (s *storageMix) run(rec *recorder) error {
	for i := range s.ops {
		if err := s.do(i, rec, nil); err != nil {
			return err
		}
	}
	s.finishPass()
	return nil
}

// do performs op i: untimed preparation (the application filling its
// buffer, the receiver posting its input), the timed call (issue +
// Testbed.Run), then untimed verification of the data it moved.
func (s *storageMix) do(i int, rec *recorder, tr *tracer) error {
	op := s.ops[i]
	p, st, bs := s.pa, s.st, s.st.Device().BlockSize()
	weak := op.sem.WeakIntegrity()
	va := s.bufA
	var in *core.InputOp
	var media []byte // the device's blocks before a direct read
	direct := op.kind == opRead && (op.sem == core.Share || op.sem == core.EmulatedShare)
	switch op.kind {
	case opRead:
		if direct {
			media = s.media[:0]
			for b := op.block; b*bs < op.block*bs+op.length; b++ {
				buf := st.Device().Peek(b)
				media = media[:len(media)+bs]
				buf.ReadAt(media[len(media)-bs:], 0)
			}
			media = media[:op.length]
		}
	case opWrite:
		data := s.pattern[op.src : op.src+op.length]
		if op.sem.SystemAllocated() {
			r, err := p.AllocIOBuffer(op.length)
			if err != nil {
				return fmt.Errorf("op %d: alloc: %w", i, err)
			}
			va = r.Start()
		}
		if err := p.Write(va, data); err != nil {
			return fmt.Errorf("op %d: fill: %w", i, err)
		}
	case opSendfile:
		var vaB vm.Addr
		if !op.sem.SystemAllocated() {
			vaB = s.bufB
		}
		var err error
		if in, err = s.pb.Input(stoPort, op.sem, vaB, op.length); err != nil {
			return fmt.Errorf("op %d: input: %w", i, err)
		}
	}

	var fo *core.FileOp
	var err error
	g := int32(i)
	call := func() error {
		root := tr.begin("op."+op.kind.String(), -1, g)
		issue := tr.begin("core.Storage."+op.kind.String(), root, g)
		switch op.kind {
		case opRead:
			target := va
			if op.sem.SystemAllocated() {
				target = 0
			}
			fo, err = st.FileRead(p, op.sem, op.block, op.length, target)
		case opWrite:
			fo, err = st.FileWrite(p, op.sem, op.block, op.length, va)
		default:
			fo, err = st.Sendfile(stoPort, op.block, op.length)
		}
		tr.end(issue)
		if err == nil {
			run := tr.begin("core.Testbed.Run", root, g)
			s.tb.Run()
			tr.end(run)
		}
		tr.end(root)
		return err
	}
	if rec != nil {
		rec.attempted++
		err = rec.time(call)
	} else {
		err = call()
	}
	if err != nil {
		return fmt.Errorf("op %d (%v %v block %d len %d): %w", i, op.kind, op.sem, op.block, op.length, err)
	}
	if !fo.Done || fo.Err != nil {
		s.miss("op %d (%v %v): done=%v err=%v", i, op.kind, op.sem, fo.Done, fo.Err)
		return nil
	}
	if rec != nil {
		rec.done(1)
	}
	s.outs = append(s.outs, fileOpOut{kind: op.kind, length: op.length, cpu: fo.CPU, lat: fo.CompletedAt.Sub(fo.StartedAt).Micros()})

	want := s.shadow[op.block*bs : op.block*bs+op.length]
	switch op.kind {
	case opRead:
		if !direct {
			s.verify(i, p, fo.Addr, want)
		} else if got := s.verify(i, p, fo.Addr, media); got != nil && !bytes.Equal(got, want) {
			s.staleDirect++
		}
		if fo.Region != nil {
			if err := release(p, fo.Region, weak); err != nil {
				return fmt.Errorf("op %d: release: %w", i, err)
			}
		}
	case opWrite:
		copy(want, s.pattern[op.src:op.src+op.length])
	case opSendfile:
		if !in.Done || in.Err != nil || in.N != op.length {
			s.miss("op %d sendfile input: done=%v err=%v n=%d", i, in.Done, in.Err, in.N)
			return nil
		}
		s.verify(i, s.pb, in.Addr, want)
		if in.Region != nil {
			if err := release(s.pb, in.Region, weak); err != nil {
				return fmt.Errorf("op %d: release input: %w", i, err)
			}
		}
	}
	return nil
}

// verify reads back the bytes op i delivered at the address and counts
// a miss unless they equal want. It returns the bytes read (nil if the
// read-back failed).
func (s *storageMix) verify(i int, p *core.Process, at vm.Addr, want []byte) []byte {
	got := s.scratch[:len(want)]
	if err := p.Read(at, got); err != nil {
		s.miss("op %d: read back: %v", i, err)
		return nil
	}
	if !bytes.Equal(got, want) {
		s.miss("op %d (%v %v block %d len %d): delivered data differs", i, s.ops[i].kind, s.ops[i].sem, s.ops[i].block, s.ops[i].length)
	}
	return got
}

// release hands back a system-allocated buffer the process is done
// with: to the region cache while the cache holds fewer than
// stoRecycleCap regions, freed beyond that. The program never reclaims
// cached regions itself, and Storage.FileRead's move family allocates
// fresh regions rather than drawing from the cache, so recycling every
// read buffer would pin frames without bound.
func release(p *core.Process, r *vm.Region, weak bool) error {
	if p.Space().CachedRegions(false)+p.Space().CachedRegions(true) < stoRecycleCap {
		return p.RecycleIOBuffer(r, weak)
	}
	return p.FreeIOBuffer(r)
}

func (s *storageMix) miss(format string, args ...any) {
	s.problems = append(s.problems, fmt.Sprintf(format, args...))
}

// finishPass syncs the cache and audits the stack: conservation,
// frame invariants, and device contents against the expected file.
func (s *storageMix) finishPass() {
	s.st.Sync()
	if err := s.st.CheckConservation(); err != nil {
		s.miss("conservation: %v", err)
	}
	for _, h := range []*core.Host{s.tb.A, s.tb.B} {
		if err := h.Phys.CheckInvariants(); err != nil {
			s.miss("%s frames: %v", h.Name, err)
		}
	}
	bs := s.st.Device().BlockSize()
	var dev strings.Builder
	for b := 0; b < stoFileBlocks; b++ {
		got := s.st.Device().Peek(b).Resolve()
		if !bytes.Equal(got, s.shadow[b*bs:(b+1)*bs]) {
			s.miss("device block %d differs from the file after Sync", b)
		}
		dev.Write(got)
	}
	s.devFP = digest(dev.String())
	s.steps = s.tb.Eng.Steps()
}

func (s *storageMix) reference() *reference {
	var seq strings.Builder
	for _, o := range s.outs {
		seq.WriteString(fp32(o.cpu, o.lat))
	}
	return &reference{
		Seeded: map[string]string{
			"ops[]":  seq.String(),
			"device": s.devFP,
		},
	}
}

func (s *storageMix) check(ref *reference) []string {
	out := append([]string(nil), s.problems...)
	return append(out, ref.compare(s.reference())...)
}

func (s *storageMix) work() map[string]uint64 {
	st := s.st.Stats()
	return map[string]uint64{
		"ops":          uint64(len(s.ops)),
		"completed":    uint64(len(s.outs)),
		"reads":        st.Reads,
		"writes":       st.Writes,
		"sendfiles":    st.Sendfiles,
		"engine_steps": s.steps,
	}
}

func (s *storageMix) simMetrics() (map[string]float64, error) {
	var lat []float64
	var cpu float64
	var kb float64
	for _, o := range s.outs {
		lat = append(lat, o.lat)
		cpu += o.cpu
		kb += float64(o.length) / 1024
	}
	errPct, err := paperErrPct(nil)
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"sim_p50_us":        quantile(lat, 0.5),
		"sim_p99_us":        quantile(lat, 0.99),
		"sim_cpu_us_per_kb": cpu / kb,
		"paper_err_pct":     errPct,
	}, nil
}

func (s *storageMix) teardown() {
	s.tb, s.st, s.pa, s.pb = nil, nil, nil, nil
	s.shadow, s.pattern, s.scratch, s.media, s.outs = nil, nil, nil, nil, nil
}

func (s *storageMix) shape() map[string]any {
	return map[string]any{
		"issuers":            1,
		"pipeline_depth":     1,
		"ops_per_pass":       stoOps,
		"cache_pages":        stoCachePages,
		"file_blocks":        stoFileBlocks,
		"hot_blocks":         stoHotBlocks,
		"hot_pct":            stoHotPct,
		"mix_pct":            fmt.Sprintf("read %d / write %d / sendfile %d", stoReadPct, stoWritePct, 100-stoReadPct-stoWritePct),
		"dirty_threshold":    stoDirty,
		"readahead_blocks":   stoReadAhead,
		"cache_start":        "warm: the hot set is read once before the timed ops",
		"stale_direct_reads": s.staleDirect,
	}
}

// traced alternates untraced and traced passes of the same ops until
// the deadline (at least one of each); per-layer numbers come from the
// traced passes, the overhead from the pair.
func (s *storageMix) traced(ref *reference, deadline time.Time, tr *tracer) (*traceOut, error) {
	out := &traceOut{metrics: map[string]float64{}}
	var plain, traced []float64
	var layers layerSums
	var readLat, writeLat []float64
	for pass := 0; pass < 3 || time.Now().Before(deadline); pass++ {
		var t *tracer
		if pass%2 == 1 {
			t = tr
		}
		if err := s.setup(); err != nil {
			return nil, err
		}
		start := time.Now()
		for i := range s.ops {
			if err := s.do(i, nil, t); err != nil {
				return nil, err
			}
		}
		d := time.Since(start).Seconds()
		s.finishPass()
		out.attempted += len(s.ops)
		out.problems = append(out.problems, s.check(ref)...)
		if t == nil {
			if pass > 0 { // pass 0 warms the caches and heap
				plain = append(plain, d)
			}
			continue
		}
		traced = append(traced, d)
		layers.addTestbed(s.tb)
		layers.addStorage(s.st)
		layers.ops += len(s.ops)
		layers.passes++
		for _, o := range s.outs {
			switch o.kind {
			case opRead:
				readLat = append(readLat, o.lat)
			case opWrite:
				writeLat = append(writeLat, o.lat)
			}
		}
	}
	m := layers.metrics()
	m["core.storage.read_us"] = median(tr.totalUS("op.read"))
	m["core.storage.write_us"] = median(tr.totalUS("op.write"))
	m["core.storage.sendfile_us"] = median(tr.totalUS("op.sendfile"))
	m["sim.run_us"] = median(tr.totalUS("core.Testbed.Run"))
	m["sim.ns_per_step"] = sum(tr.totalUS("core.Testbed.Run")) * 1e3 / float64(layers.steps)
	m["core.storage.sim_read_p50_us"] = quantile(readLat, 0.5)
	m["core.storage.sim_read_p99_us"] = quantile(readLat, 0.99)
	m["core.storage.sim_write_p50_us"] = quantile(writeLat, 0.5)
	m["core.storage.sim_write_p99_us"] = quantile(writeLat, 0.99)
	m["trace.overhead_pct"] = 100 * (median(traced)/median(plain) - 1)
	out.metrics = m
	out.idle = []string{"experiments", "workload", "faults", "core.cluster", "core.reliable"}
	out.gaps = []string{
		"pagecache and blockdev self time: the page cache and device run inside Storage calls and Testbed.Run, so their host time is not separable from outside",
	}
	return out, nil
}
