package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewLayout(t *testing.T) {
	pm := New(8, 4096)
	if pm.PageSize() != 4096 || pm.NumFrames() != 8 || pm.FreeFrames() != 8 {
		t.Fatalf("unexpected geometry: %d/%d/%d", pm.PageSize(), pm.NumFrames(), pm.FreeFrames())
	}
	if err := pm.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNewPanicsOnBadSize(t *testing.T) {
	for _, args := range [][2]int{{0, 4096}, {8, 0}, {-1, 4096}, {8, -4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", args[0], args[1])
				}
			}()
			New(args[0], args[1])
		}()
	}
}

func TestAllocFreeCycle(t *testing.T) {
	pm := New(4, 64)
	f, err := pm.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if f.Free() || !f.Attached() {
		t.Fatalf("allocated frame in wrong state: %v", f)
	}
	if pm.FreeFrames() != 3 {
		t.Fatalf("free frames = %d, want 3", pm.FreeFrames())
	}
	pm.Release(f)
	if !f.Free() || f.Attached() {
		t.Fatalf("released frame in wrong state: %v", f)
	}
	if pm.FreeFrames() != 4 {
		t.Fatalf("free frames = %d, want 4", pm.FreeFrames())
	}
	if err := pm.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestExhaustion(t *testing.T) {
	pm := New(2, 64)
	a, _ := pm.Alloc()
	if _, err := pm.Alloc(); err != nil {
		t.Fatalf("second alloc failed early: %v", err)
	}
	if _, err := pm.Alloc(); err != ErrOutOfMemory {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	if pm.Stats().FailedAllocs != 1 {
		t.Fatalf("FailedAllocs = %d, want 1", pm.Stats().FailedAllocs)
	}
	pm.Release(a)
	if _, err := pm.Alloc(); err != nil {
		t.Fatalf("alloc after release failed: %v", err)
	}
}

func TestAllocZeroed(t *testing.T) {
	pm := New(2, 16)
	f, _ := pm.Alloc()
	for i := range f.Data() {
		f.Data()[i] = 0xAB
	}
	pm.Release(f)
	g, _ := pm.AllocZeroed()
	if g.ID() != f.ID() {
		t.Fatalf("LIFO free list should reuse frame %d, got %d", f.ID(), g.ID())
	}
	for i, b := range g.Data() {
		if b != 0 {
			t.Fatalf("byte %d = %#x after AllocZeroed", i, b)
		}
	}
}

func TestPlainAllocKeepsStaleData(t *testing.T) {
	// The dirty-reuse hazard that motivates I/O-deferred deallocation.
	pm := New(2, 16)
	f, _ := pm.Alloc()
	f.Data()[0] = 0x5A
	pm.Release(f)
	g, _ := pm.Alloc()
	if g.Data()[0] != 0x5A {
		t.Fatal("expected stale data to survive plain Alloc")
	}
}

func TestDeferredFree(t *testing.T) {
	pm := New(2, 64)
	f, _ := pm.Alloc()
	pm.RefOutput(f)
	pm.Release(f) // app deallocates during pending output
	if f.Free() {
		t.Fatal("frame freed while output reference outstanding")
	}
	if !f.PendingFree() {
		t.Fatalf("frame not pending free: %v", f)
	}
	if pm.Stats().DeferredFrees != 1 {
		t.Fatalf("DeferredFrees = %d, want 1", pm.Stats().DeferredFrees)
	}
	// The frame must not be allocatable while referenced.
	g, _ := pm.Alloc()
	if g != nil && g.ID() == f.ID() {
		t.Fatal("referenced frame reallocated to another owner")
	}
	pm.UnrefOutput(f)
	if !f.Free() {
		t.Fatal("deferred free did not complete on last unreference")
	}
	if err := pm.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeferredFreeMultipleRefs(t *testing.T) {
	pm := New(1, 64)
	f, _ := pm.Alloc()
	pm.RefInput(f)
	pm.RefInput(f)
	pm.RefOutput(f)
	pm.Release(f)
	pm.UnrefInput(f)
	pm.UnrefOutput(f)
	if f.Free() {
		t.Fatal("freed with an input reference outstanding")
	}
	pm.UnrefInput(f)
	if !f.Free() {
		t.Fatal("not freed after last unreference")
	}
}

func TestUnrefWhileAttachedDoesNotFree(t *testing.T) {
	pm := New(1, 64)
	f, _ := pm.Alloc()
	pm.RefInput(f)
	pm.UnrefInput(f)
	if f.Free() || !f.Attached() {
		t.Fatalf("attached frame freed by unreference: %v", f)
	}
}

func TestWireCounts(t *testing.T) {
	pm := New(1, 64)
	f, _ := pm.Alloc()
	pm.Wire(f)
	pm.Wire(f)
	if !f.Wired() || f.WireCount() != 2 {
		t.Fatalf("wire count = %d, want 2", f.WireCount())
	}
	pm.Unwire(f)
	if !f.Wired() {
		t.Fatal("frame unwired too early")
	}
	pm.Unwire(f)
	if f.Wired() {
		t.Fatal("frame still wired")
	}
}

func TestReleaseClearsWiring(t *testing.T) {
	pm := New(1, 64)
	f, _ := pm.Alloc()
	pm.Wire(f)
	pm.Release(f)
	if f.Wired() {
		t.Fatal("released frame still wired")
	}
}

func TestPanics(t *testing.T) {
	pm := New(2, 64)
	f, _ := pm.Alloc()
	pm.Release(f)
	expectPanic(t, "double free", func() { pm.Release(f) })
	expectPanic(t, "ref free frame", func() { pm.RefInput(f) })
	expectPanic(t, "ref free frame out", func() { pm.RefOutput(f) })
	expectPanic(t, "wire free frame", func() { pm.Wire(f) })
	g, _ := pm.Alloc()
	expectPanic(t, "unref underflow in", func() { pm.UnrefInput(g) })
	expectPanic(t, "unref underflow out", func() { pm.UnrefOutput(g) })
	expectPanic(t, "unwire underflow", func() { pm.Unwire(g) })
	expectPanic(t, "bad frame id", func() { pm.Frame(99) })
}

func expectPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", name)
		}
	}()
	fn()
}

func TestStats(t *testing.T) {
	pm := New(4, 64)
	a, _ := pm.Alloc()
	b, _ := pm.AllocZeroed()
	pm.Release(a)
	pm.RefInput(b)
	pm.Release(b)
	pm.UnrefInput(b)
	s := pm.Stats()
	if s.Allocs != 2 || s.Frees != 2 || s.DeferredFrees != 1 || s.Zeroed != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// Property: under random operation sequences, the frame-state invariants
// hold and the number of usable frames is conserved.
func TestPropertyInvariantsUnderRandomOps(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pm := New(8, 32)
		var live []*Frame
		for op := 0; op < 300; op++ {
			switch rng.Intn(6) {
			case 0:
				if f, err := pm.Alloc(); err == nil {
					live = append(live, f)
				}
			case 1:
				if len(live) > 0 {
					i := rng.Intn(len(live))
					pm.Release(live[i])
					live = append(live[:i], live[i+1:]...)
				}
			case 2:
				if len(live) > 0 {
					pm.RefInput(live[rng.Intn(len(live))])
				}
			case 3:
				if len(live) > 0 {
					pm.RefOutput(live[rng.Intn(len(live))])
				}
			case 4:
				if len(live) > 0 {
					f := live[rng.Intn(len(live))]
					if f.InRefs() > 0 {
						pm.UnrefInput(f)
					}
				}
			case 5:
				if len(live) > 0 {
					f := live[rng.Intn(len(live))]
					if f.OutRefs() > 0 {
						pm.UnrefOutput(f)
					}
				}
			}
			if err := pm.CheckInvariants(); err != nil {
				t.Logf("seed %d op %d: %v", seed, op, err)
				return false
			}
		}
		// Drain all references on released frames; everything not live
		// must end up free.
		for i := 0; i < pm.NumFrames(); i++ {
			f := pm.Frame(FrameID(i))
			if f.Attached() {
				continue
			}
			for f.InRefs() > 0 {
				pm.UnrefInput(f)
			}
			for f.OutRefs() > 0 {
				pm.UnrefOutput(f)
			}
		}
		return pm.FreeFrames() == pm.NumFrames()-len(live) && pm.CheckInvariants() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a frame released while referenced is never handed out by
// Alloc before its last unreference.
func TestPropertyNoDirtyReuse(t *testing.T) {
	prop := func(nRefs uint8) bool {
		pm := New(2, 16)
		f, _ := pm.Alloc()
		refs := int(nRefs%5) + 1
		for i := 0; i < refs; i++ {
			pm.RefOutput(f)
		}
		pm.Release(f)
		for i := 0; i < refs; i++ {
			// While any reference remains, f must not be allocatable.
			g, err := pm.Alloc()
			if err == nil {
				if g.ID() == f.ID() {
					return false
				}
				pm.Release(g)
			}
			pm.UnrefOutput(f)
		}
		g, err := pm.Alloc()
		return err == nil && g.ID() == f.ID()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAllocRelease(b *testing.B) {
	pm := New(64, 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f, err := pm.Alloc()
		if err != nil {
			b.Fatal(err)
		}
		pm.Release(f)
	}
}

func TestLazyMaterialization(t *testing.T) {
	pm := New(4, 16)
	for i := 0; i < 4; i++ {
		if data := pm.Frame(FrameID(i)).Data(); data != nil {
			t.Fatalf("frame %d has backing data before first allocation", i)
		}
	}
	f, err := pm.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Data()) != 16 {
		t.Fatalf("allocated frame has %d bytes of backing, want 16", len(f.Data()))
	}
	for i, b := range f.Data() {
		if b != 0 {
			t.Fatalf("byte %d = %#x on first materialization, want 0 (power-on memory)", i, b)
		}
	}
	// The other frames stay unmaterialized.
	for i := 1; i < 4; i++ {
		if pm.Frame(FrameID(i)).Data() != nil {
			t.Fatalf("frame %d materialized without being allocated", i)
		}
	}
}

func TestAllocZeroedSkipsPristineClear(t *testing.T) {
	pm := New(2, 16)
	// First allocation of a frame: the backing is freshly materialized
	// (all zero), so AllocZeroed must count it as zeroed without needing
	// a clear, and the data must read zero either way.
	f, err := pm.AllocZeroed()
	if err != nil {
		t.Fatal(err)
	}
	if got := pm.Stats().Zeroed; got != 1 {
		t.Fatalf("Stats.Zeroed = %d after first AllocZeroed, want 1", got)
	}
	for i, b := range f.Data() {
		if b != 0 {
			t.Fatalf("byte %d = %#x after AllocZeroed on pristine frame", i, b)
		}
	}
	// Dirty the frame and recycle it: now AllocZeroed must really clear.
	f.Data()[3] = 0x77
	pm.Release(f)
	g, err := pm.AllocZeroed()
	if err != nil {
		t.Fatal(err)
	}
	if g.ID() != f.ID() {
		t.Fatalf("LIFO free list should reuse frame %d, got %d", f.ID(), g.ID())
	}
	if g.Data()[3] != 0 {
		t.Fatal("recycled dirty frame not cleared by AllocZeroed")
	}
	if got := pm.Stats().Zeroed; got != 2 {
		t.Fatalf("Stats.Zeroed = %d after second AllocZeroed, want 2", got)
	}
}

func TestReset(t *testing.T) {
	pm := New(4, 16)
	f0, _ := pm.Alloc()
	f0.Data()[0] = 0xEE
	f1, _ := pm.Alloc()
	pm.Wire(f1)
	pm.RefInput(f1)
	pm.Release(f0)

	pm.Reset()
	if err := pm.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if pm.FreeFrames() != pm.NumFrames() {
		t.Fatalf("free frames = %d after Reset, want %d", pm.FreeFrames(), pm.NumFrames())
	}
	if pm.Stats() != (Stats{}) {
		t.Fatalf("stats = %+v after Reset, want zero", pm.Stats())
	}
	// Canonical free-list order: allocation starts over at frame 0, and
	// the retained backing store keeps its (stale) contents.
	g, err := pm.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if g.ID() != 0 {
		t.Fatalf("first allocation after Reset returned frame %d, want 0", g.ID())
	}
	if g.Data()[0] != 0xEE {
		t.Fatal("Reset reallocated the backing store instead of retaining it")
	}
	if g.Referenced() || g.Wired() {
		t.Fatalf("frame carries stale ref/wire counts after Reset: %v", g)
	}
	// A Reset frame is not pristine: AllocZeroed must clear it.
	pm.Reset()
	z, err := pm.AllocZeroed()
	if err != nil {
		t.Fatal(err)
	}
	if z.Data()[0] != 0 {
		t.Fatal("AllocZeroed returned stale data after Reset")
	}
}

// TestUnwrittenFrameReadsZero checks that an allocated, never-written
// bytes-plane frame reads as zeros through every accessor, whichever
// allocator handed it out.
func TestUnwrittenFrameReadsZero(t *testing.T) {
	pm := New(2, 16)
	for _, alloc := range []func() (*Frame, error){pm.Alloc, pm.AllocZeroed} {
		f, err := alloc()
		if err != nil {
			t.Fatal(err)
		}
		p := []byte{1, 2, 3, 4}
		f.ReadAt(p, 12)
		for i, b := range p {
			if b != 0 {
				t.Fatalf("ReadAt byte %d = %#x, want 0", i, b)
			}
		}
		zero := ZeroBuf(16)
		if got := f.ReadBuf(0, 16); !got.Equal(zero) {
			t.Fatalf("ReadBuf = %v, want zeros", got.Resolve())
		}
		if got := f.SnapshotBuf(); !got.Equal(zero) {
			t.Fatalf("SnapshotBuf = %v, want zeros", got.Resolve())
		}
		if got := GatherFrames([]*Frame{f}, 3, 10); !got.Equal(ZeroBuf(10)) {
			t.Fatalf("GatherFrames = %v, want zeros", got.Resolve())
		}
		if f.data != nil {
			t.Fatal("reads materialized the backing store")
		}
		if got := f.Data(); len(got) != 16 || !BufBytes(got).Equal(zero) {
			t.Fatalf("Data = %v, want 16 zero bytes", got)
		}
	}
}

// TestCopyFromUnwrittenSourceZeroes checks that copying an unwritten
// frame over a written one leaves the destination all zero, without
// materializing the source.
func TestCopyFromUnwrittenSourceZeroes(t *testing.T) {
	pm := New(2, 16)
	dst, _ := pm.Alloc()
	src, _ := pm.Alloc()
	dst.WriteAt(0, []byte("0123456789abcdef"))
	dst.CopyFrom(src)
	if got := dst.ReadBuf(0, 16); !got.Equal(ZeroBuf(16)) {
		t.Fatalf("destination after CopyFrom = %q, want zeros", got.Resolve())
	}
	if src.data != nil {
		t.Fatal("CopyFrom materialized its source")
	}
}

// TestFrameMaterializesOnFirstWrite checks that no read, clear, zeroing
// allocation, or copy from an unwritten frame gives a frame a backing
// store, and that its first write does.
func TestFrameMaterializesOnFirstWrite(t *testing.T) {
	pm := New(2, 16)
	f, _ := pm.AllocZeroed()
	g, _ := pm.Alloc()
	f.ReadAt(make([]byte, 4), 0)
	f.ReadBuf(2, 8)
	f.ClearRange(0, 16)
	f.CopyFrom(g)
	f.WriteBuf(5, Buf{})
	pm.Release(f)
	f, _ = pm.AllocZeroed()
	if f.data != nil || g.data != nil {
		t.Fatal("frame materialized before its first write")
	}
	if f.Size() != 16 {
		t.Fatalf("Size = %d before first write, want 16", f.Size())
	}
	f.WriteAt(15, []byte{0x42})
	if len(f.data) != 16 {
		t.Fatalf("first write gave a %d-byte backing store, want 16", len(f.data))
	}
	want := append(make([]byte, 15), 0x42)
	if got := f.ReadBuf(0, 16); !got.Equal(BufBytes(want)) {
		t.Fatalf("frame after first write = %v, want %v", got.Resolve(), want)
	}
	if g.data != nil {
		t.Fatal("writing one frame materialized another")
	}
}

// TestResetMatchesFresh replays one allocation script on a fresh
// PhysMem and on a used PhysMem after Reset: frame IDs and Stats must
// match step for step.
func TestResetMatchesFresh(t *testing.T) {
	script := func(pm *PhysMem) ([]FrameID, []Stats) {
		var ids []FrameID
		var snaps []Stats
		var held []*Frame
		for i := 0; i < 6; i++ {
			alloc := pm.Alloc
			if i%2 == 0 {
				alloc = pm.AllocZeroed
			}
			f, err := alloc()
			if err != nil {
				t.Fatal(err)
			}
			if i%3 == 0 {
				f.WriteAt(i, []byte{byte(i + 1)})
			}
			ids = append(ids, f.ID())
			held = append(held, f)
			snaps = append(snaps, pm.Stats())
		}
		pm.RefInput(held[1])
		pm.Release(held[1])
		pm.Release(held[4])
		pm.UnrefInput(held[1])
		for i := 0; i < 3; i++ {
			f, err := pm.AllocZeroed()
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, f.ID())
			snaps = append(snaps, pm.Stats())
		}
		return ids, snaps
	}
	wantIDs, wantStats := script(New(8, 16))
	pm := New(8, 16)
	script(pm)
	pm.Reset()
	gotIDs, gotStats := script(pm)
	for i := range wantIDs {
		if gotIDs[i] != wantIDs[i] || gotStats[i] != wantStats[i] {
			t.Fatalf("step %d: Reset gave frame %d stats %+v, fresh gave frame %d stats %+v",
				i, gotIDs[i], gotStats[i], wantIDs[i], wantStats[i])
		}
	}
	if err := pm.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
