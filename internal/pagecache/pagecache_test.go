package pagecache

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/vm"
)

const pageSize = 4096

func newCache(t testing.TB, cfg Config) (*vm.System, *blockdev.Device, *Cache) {
	t.Helper()
	return newCacheOn(t, mem.Bytes, cfg)
}

func newCacheOn(t testing.TB, plane mem.DataPlane, cfg Config) (*vm.System, *blockdev.Device, *Cache) {
	t.Helper()
	pm := mem.NewWithPlane(256, pageSize, plane)
	sys := vm.NewSystem(pm)
	eng := sim.New()
	dev, err := blockdev.New(eng, blockdev.Model{SeekUS: 100, FixedUS: 10, PerByteUS: 0.001}, pageSize, 128)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(sys, dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys, dev, c
}

func image(dev *blockdev.Device, t testing.TB, blocks int) {
	t.Helper()
	for b := 0; b < blocks; b++ {
		p := make([]byte, pageSize)
		for i := range p {
			p[i] = byte(b*37 + i)
		}
		if err := dev.Load(b, mem.BufBytes(p)); err != nil {
			t.Fatal(err)
		}
	}
}

func wantBlock(b, off, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(b*37 + off + i)
	}
	return p
}

// A miss fills with read-ahead; subsequent reads of the prefetched
// blocks hit. Conservation: device blocks read == misses + readaheads.
func TestMissReadAheadHit(t *testing.T) {
	_, dev, c := newCache(t, Config{Pages: 16, ReadAhead: 3})
	image(dev, t, 8)
	got, _, err := c.ReadRange(0, 0, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Resolve(), wantBlock(0, 0, pageSize)) {
		t.Fatal("content mismatch on miss fill")
	}
	ct := c.Counters()
	if ct.Misses != 1 || ct.ReadAheads != 3 || ct.Hits != 0 {
		t.Fatalf("after miss: %+v", ct)
	}
	// Blocks 1..3 were prefetched: all hits, no device traffic.
	before := dev.Stats().BlocksRead
	for b := 1; b <= 3; b++ {
		got, wait, err := c.ReadRange(b, 0, pageSize)
		if err != nil {
			t.Fatal(err)
		}
		if wait != 0 {
			t.Fatalf("hit on block %d waited %v", b, wait)
		}
		if !bytes.Equal(got.Resolve(), wantBlock(b, 0, pageSize)) {
			t.Fatalf("block %d content mismatch", b)
		}
	}
	if dev.Stats().BlocksRead != before {
		t.Fatal("hits generated device reads")
	}
	ct = c.Counters()
	if ct.Hits != 3 {
		t.Fatalf("hits = %d", ct.Hits)
	}
	if dev.Stats().BlocksRead != ct.Misses+ct.ReadAheads {
		t.Fatalf("conservation: device read %d, misses+readaheads %d",
			dev.Stats().BlocksRead, ct.Misses+ct.ReadAheads)
	}
	if err := c.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// Read-ahead stops at resident blocks and the device end.
func TestReadAheadClipping(t *testing.T) {
	_, dev, c := newCache(t, Config{Pages: 16, ReadAhead: 8})
	image(dev, t, 128)
	if _, _, err := c.ReadRange(5, 0, 1); err != nil { // resident island at 5
		t.Fatal(err)
	}
	if _, _, err := c.ReadRange(2, 0, 1); err != nil { // run 2..4 stops at 5
		t.Fatal(err)
	}
	ct := c.Counters()
	if ct.ReadAheads != 8+2 {
		t.Fatalf("readaheads = %d, want 10", ct.ReadAheads)
	}
	// Device end: a miss at the last block reads exactly one.
	before := dev.Stats().BlocksRead
	if _, _, err := c.ReadRange(127, 0, 1); err != nil {
		t.Fatal(err)
	}
	if dev.Stats().BlocksRead != before+1 {
		t.Fatal("read-ahead ran past device end")
	}
}

// Dirty pages accumulate until the threshold fires one burst that
// flushes everything in ascending block order.
func TestWritebackBurst(t *testing.T) {
	_, dev, c := newCache(t, Config{Pages: 32, DirtyThreshold: 4})
	for b := 0; b < 3; b++ {
		if _, err := c.WriteRange(b, 0, mem.ZeroBuf(pageSize)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Dirty() != 3 || dev.Stats().Writes != 0 {
		t.Fatalf("below threshold: dirty %d, writes %d", c.Dirty(), dev.Stats().Writes)
	}
	wait, err := c.WriteRange(9, 0, mem.ZeroBuf(pageSize))
	if err != nil {
		t.Fatal(err)
	}
	if wait == 0 {
		t.Fatal("burst waited zero device time")
	}
	ct := c.Counters()
	if c.Dirty() != 0 || ct.Bursts != 1 || ct.Writebacks != 4 {
		t.Fatalf("after burst: dirty %d, %+v", c.Dirty(), ct)
	}
	if dev.Stats().BlocksWritten != 4 {
		t.Fatalf("device wrote %d blocks", dev.Stats().BlocksWritten)
	}
	if c.DirtyHighWater() != 4 {
		t.Fatalf("dirty high-water %d", c.DirtyHighWater())
	}
	if err := c.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// Full-page writes allocate without reading; partial writes
// read-modify-write; content round-trips through writeback.
func TestWriteAllocateAndRMW(t *testing.T) {
	_, dev, c := newCache(t, Config{Pages: 8})
	image(dev, t, 8)
	if _, err := c.WriteRange(0, 0, mem.BufBytes(wantBlock(9, 0, pageSize))); err != nil {
		t.Fatal(err)
	}
	if dev.Stats().BlocksRead != 0 {
		t.Fatal("full-page write read the device")
	}
	// Partial write into block 1: RMW fetches it first.
	if _, err := c.WriteRange(1, 100, mem.BufBytes([]byte{0xaa, 0xbb})); err != nil {
		t.Fatal(err)
	}
	if dev.Stats().BlocksRead != 1 {
		t.Fatalf("RMW read %d blocks, want 1", dev.Stats().BlocksRead)
	}
	c.Sync()
	if c.Dirty() != 0 {
		t.Fatal("dirty after Sync")
	}
	got := dev.Peek(1).Resolve()
	want := wantBlock(1, 0, pageSize)
	want[100], want[101] = 0xaa, 0xbb
	if !bytes.Equal(got, want) {
		t.Fatal("RMW content mismatch after writeback")
	}
	if !bytes.Equal(dev.Peek(0).Resolve(), wantBlock(9, 0, pageSize)) {
		t.Fatal("full-page write content mismatch after writeback")
	}
}

// LRU eviction: capacity overflow evicts the least recently used page,
// writing it back first when dirty.
func TestEvictionLRU(t *testing.T) {
	_, dev, c := newCache(t, Config{Pages: 4})
	image(dev, t, 16)
	if _, err := c.WriteRange(0, 0, mem.ZeroBuf(pageSize)); err != nil { // dirty block 0
		t.Fatal(err)
	}
	for b := 1; b < 4; b++ {
		if _, _, err := c.ReadRange(b, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	// Touch 0 so 1 becomes LRU, then overflow.
	if _, _, err := c.ReadRange(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.ReadRange(10, 0, 1); err != nil {
		t.Fatal(err)
	}
	ct := c.Counters()
	if ct.Evictions != 1 {
		t.Fatalf("evictions = %d", ct.Evictions)
	}
	if dev.Stats().BlocksWritten != 0 { // block 1 was clean
		t.Fatal("clean eviction wrote the device")
	}
	if c.Resident() != 4 {
		t.Fatalf("resident %d", c.Resident())
	}
	// Now make block 0 LRU and dirty; evicting it must write back.
	for _, b := range []int{2, 3, 10} {
		if _, _, err := c.ReadRange(b, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := c.ReadRange(11, 0, 1); err != nil {
		t.Fatal(err)
	}
	if dev.Stats().BlocksWritten != 1 {
		t.Fatalf("dirty eviction wrote %d blocks", dev.Stats().BlocksWritten)
	}
	if !bytes.Equal(dev.Peek(0).Resolve(), make([]byte, pageSize)) {
		t.Fatal("evicted dirty content not written back")
	}
	if err := c.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TakeFrame donates the page out of the cache: the frame carries the
// content, the block is no longer resident, and a re-read refetches.
func TestTakeFrameConsumes(t *testing.T) {
	sys, dev, c := newCache(t, Config{Pages: 8})
	image(dev, t, 8)
	f, _, err := c.TakeFrame(2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.ReadBuf(0, pageSize).Resolve(), wantBlock(2, 0, pageSize)) {
		t.Fatal("donated frame content mismatch")
	}
	if c.Resident() != 0 {
		t.Fatalf("resident %d after donation", c.Resident())
	}
	ct := c.Counters()
	if ct.Consumed != 1 || ct.Misses != 1 {
		t.Fatalf("counters %+v", ct)
	}
	before := dev.Stats().BlocksRead
	if _, _, err := c.ReadRange(2, 0, 1); err != nil {
		t.Fatal(err)
	}
	if dev.Stats().BlocksRead != before+1 {
		t.Fatal("re-read of donated block did not refetch")
	}
	// A dirty donated page is written back before leaving.
	if _, err := c.WriteRange(3, 0, mem.ZeroBuf(pageSize)); err != nil {
		t.Fatal(err)
	}
	if _, _, err = c.TakeFrame(3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dev.Peek(3).Resolve(), make([]byte, pageSize)) {
		t.Fatal("dirty donation skipped writeback")
	}
	sys.Phys().Release(f)
	if err := c.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// Drop empties the cache and releases every frame; frames are conserved
// across a full exercise.
func TestDropAndFrameConservation(t *testing.T) {
	sys, dev, c := newCache(t, Config{Pages: 8, ReadAhead: 2, DirtyThreshold: 3})
	image(dev, t, 32)
	base := sys.Phys().FreeFrames()
	for b := 0; b < 20; b += 2 {
		if _, _, err := c.ReadRange(b, 0, pageSize); err != nil {
			t.Fatal(err)
		}
		if _, err := c.WriteRange(b, 8, mem.BufBytes([]byte{1})); err != nil {
			t.Fatal(err)
		}
	}
	c.Drop()
	if c.Resident() != 0 || c.Dirty() != 0 {
		t.Fatalf("after Drop: resident %d dirty %d", c.Resident(), c.Dirty())
	}
	if sys.Phys().FreeFrames() != base {
		t.Fatalf("frames leaked: %d free, base %d", sys.Phys().FreeFrames(), base)
	}
	if err := c.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	ct := c.Counters()
	if dev.Stats().BlocksRead != ct.Misses+ct.ReadAheads {
		t.Fatalf("conservation: device read %d, misses+readaheads %d",
			dev.Stats().BlocksRead, ct.Misses+ct.ReadAheads)
	}
}

// Reacquire after a system reset leaves the cache frame-for-frame
// identical to a fresh one (lazy allocation: construction allocates
// nothing).
func TestReacquireMatchesFresh(t *testing.T) {
	pm := mem.NewWithPlane(64, pageSize, mem.Bytes)
	sys := vm.NewSystem(pm)
	eng := sim.New()
	dev, err := blockdev.New(eng, blockdev.Model{}, pageSize, 16)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(sys, dev, Config{Pages: 4})
	if err != nil {
		t.Fatal(err)
	}
	run := func() []mem.FrameID {
		if _, _, err := c.ReadRange(0, 0, 3*pageSize); err != nil {
			t.Fatal(err)
		}
		var ids []mem.FrameID
		for b := 0; b < 3; b++ {
			f, _, err := c.TakeFrame(b)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, f.ID())
			pm.Release(f)
		}
		return ids
	}
	fresh := run()
	pm.Reset()
	sys.Reset()
	eng.Reset()
	dev.Reset()
	c.Reacquire()
	recycled := run()
	for i := range fresh {
		if fresh[i] != recycled[i] {
			t.Fatalf("frame ids diverge at %d: fresh %v recycled %v", i, fresh, recycled)
		}
	}
}

// A read spanning more pages than the cache holds evicts its own
// earlier pages while it runs; each page must be read out before the
// next page's fill reuses its frame.
func TestReadRangeBeyondCapacity(t *testing.T) {
	for _, plane := range []mem.DataPlane{mem.Bytes, mem.Symbolic} {
		sys, dev, c := newCacheOn(t, plane, Config{Pages: 2, ReadAhead: 2})
		image(dev, t, 8)
		base := sys.Phys().FreeFrames()
		const off = 100
		n := 4 * pageSize // 5 pages: [1]+100 .. [5]+100
		got, _, err := c.ReadRange(1, off, n)
		if err != nil {
			t.Fatal(err)
		}
		var want []byte
		for b := 1; b <= 5; b++ {
			want = append(want, wantBlock(b, 0, pageSize)...)
		}
		if !bytes.Equal(got.Resolve(), want[off:off+n]) {
			t.Fatalf("%s: content differs from the image", plane.Name())
		}
		if ct := c.Counters(); ct.Evictions == 0 {
			t.Fatalf("%s: read did not overflow the cache: %+v", plane.Name(), ct)
		}
		if err := c.CheckConservation(); err != nil {
			t.Fatalf("%s: %v", plane.Name(), err)
		}
		c.Drop()
		if sys.Phys().FreeFrames() != base {
			t.Fatalf("%s: frames leaked: %d free, base %d", plane.Name(), sys.Phys().FreeFrames(), base)
		}
	}
}

// On the bytes plane a resident read allocates its result and nothing
// per page.
func TestReadRangeResidentAllocs(t *testing.T) {
	_, dev, c := newCache(t, Config{Pages: 16})
	image(dev, t, 16)
	if _, err := c.EnsureRange(0, 15); err != nil {
		t.Fatal(err)
	}
	for _, pages := range []int{1, 4, 15} {
		allocs := testing.AllocsPerRun(20, func() {
			if _, _, err := c.ReadRange(0, 0, pages*pageSize); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Errorf("%d-page resident read: %v allocs, want <= 2", pages, allocs)
		}
	}
}

var sinkBuf mem.Buf

// BenchmarkCacheReadRange reads resident pages, so it times the gather
// alone: no device reads, no evictions.
func BenchmarkCacheReadRange(b *testing.B) {
	for _, plane := range []mem.DataPlane{mem.Bytes, mem.Symbolic} {
		for _, pages := range []int{1, 4, 15} {
			b.Run(fmt.Sprintf("%s/pages=%d", plane.Name(), pages), func(b *testing.B) {
				_, dev, c := newCacheOn(b, plane, Config{Pages: 16})
				image(dev, b, 16)
				if _, err := c.EnsureRange(0, pages); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.SetBytes(int64(pages * pageSize))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					buf, _, err := c.ReadRange(0, 0, pages*pageSize)
					if err != nil {
						b.Fatal(err)
					}
					sinkBuf = buf
				}
			})
		}
	}
}
