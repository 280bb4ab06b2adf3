package blockdev

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

const bs = 4096

func newDev(t *testing.T, m Model) (*sim.Engine, *Device) {
	t.Helper()
	eng := sim.New()
	d, err := New(eng, m, bs, 64)
	if err != nil {
		t.Fatal(err)
	}
	return eng, d
}

func pattern(seed, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(seed*37 + i*131)
	}
	return p
}

// Content round-trips through write/read, unwritten blocks read as
// zeros, and short writes zero-pad their block.
func TestContentRoundTrip(t *testing.T) {
	_, d := newDev(t, Model{})
	want := append(pattern(1, bs), pattern(2, bs)...)
	if _, err := d.Write(3, mem.BufBytes(want)); err != nil {
		t.Fatal(err)
	}
	got := make([]mem.Buf, 2)
	if _, err := d.ReadBlocks(3, got); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if !bytes.Equal(b.Resolve(), want[i*bs:(i+1)*bs]) {
			t.Fatalf("read-back block %d differs from written content", i)
		}
	}
	zero := make([]mem.Buf, 1)
	if _, err := d.ReadBlocks(10, zero); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(zero[0].Resolve(), make([]byte, bs)) {
		t.Fatal("unwritten block not zero")
	}
	if _, err := d.Write(5, mem.BufBytes(pattern(2, 100))); err != nil {
		t.Fatal(err)
	}
	short := d.Peek(5).Resolve()
	if !bytes.Equal(short[:100], pattern(2, 100)) || !bytes.Equal(short[100:], make([]byte, bs-100)) {
		t.Fatal("short write not zero-padded")
	}
}

// hostBuffer is a plain DMA target.
type hostBuffer struct{ data []byte }

func (h *hostBuffer) DMAWrite(off int, data mem.Buf) { data.ReadAt(h.data[off:off+data.Len()], 0) }
func (h *hostBuffer) Len() int                       { return len(h.data) }

// A direct read into a target shorter than the blocks it spans, ending
// mid-block, fills exactly the target and accounts every block read.
func TestDirectReadClipsToTarget(t *testing.T) {
	_, d := newDev(t, Model{})
	var want []byte // pattern repeats every 256 bytes: vary it per block
	for b := 0; b < 3; b++ {
		want = append(want, pattern(4+b, bs)...)
	}
	if _, err := d.Write(7, mem.BufBytes(want)); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, bs - 1, bs, 2*bs + 100, 3 * bs} {
		target := &hostBuffer{data: bytes.Repeat([]byte{0xff}, n)}
		if _, err := d.Read(7, 3, target); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(target.data, want[:n]) {
			t.Fatalf("%d-byte target: content differs from the device's", n)
		}
	}
	if st := d.Stats(); st.Reads != 5 || st.BlocksRead != 15 {
		t.Fatalf("stats = %+v", st)
	}
}

// Sequential requests pay one seek; a discontiguous request pays
// another. Service time follows fixed + per-byte (+ seek).
func TestSeekAccounting(t *testing.T) {
	m := Model{SeekUS: 1000, FixedUS: 100, PerByteUS: 0.01}
	_, d := newDev(t, m)
	w1, err := d.Write(0, mem.ZeroBuf(bs))
	if err != nil {
		t.Fatal(err)
	}
	want1 := 1000 + 100 + 0.01*bs // cold arm: first access seeks
	if w1.Micros() != want1 {
		t.Fatalf("first write wait %v, want %v", w1.Micros(), want1)
	}
	// Contiguous follow-up: no seek, but queued behind the busy arm.
	w2, err := d.Write(1, mem.ZeroBuf(bs))
	if err != nil {
		t.Fatal(err)
	}
	want2 := want1 + 100 + 0.01*bs
	if w2.Micros() != want2 {
		t.Fatalf("contiguous write wait %v, want %v", w2.Micros(), want2)
	}
	// Jump back: seek again.
	if _, err := d.ReadBlocks(0, make([]mem.Buf, 1)); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Seeks != 2 {
		t.Fatalf("seeks = %d, want 2", st.Seeks)
	}
	if st.Reads != 1 || st.Writes != 2 || st.BlocksRead != 1 || st.BlocksWritten != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// The arm serializes: a request issued at a later simulated time, after
// the arm went idle, starts from now rather than from busyUntil.
func TestArmIdleGap(t *testing.T) {
	m := Model{SeekUS: 10, FixedUS: 10, PerByteUS: 0}
	eng, d := newDev(t, m)
	w1, _ := d.Write(0, mem.ZeroBuf(bs))
	if w1.Micros() != 20 {
		t.Fatalf("w1 = %v", w1)
	}
	eng.Schedule(1000, func() {
		w2, _ := d.Write(1, mem.ZeroBuf(bs))
		if w2.Micros() != 10 { // idle arm, contiguous: fixed only
			t.Errorf("w2 = %v, want 10", w2)
		}
	})
	eng.Run()
}

// Range validation and Reset behavior.
func TestRangeAndReset(t *testing.T) {
	_, d := newDev(t, Model{})
	if _, err := d.ReadBlocks(63, make([]mem.Buf, 2)); err == nil {
		t.Fatal("overrun read accepted")
	}
	if _, err := d.Write(-1, mem.ZeroBuf(bs)); err == nil {
		t.Fatal("negative block accepted")
	}
	if err := d.Load(2, mem.BufBytes(pattern(3, bs))); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadBlocks(2, make([]mem.Buf, 1)); err != nil {
		t.Fatal(err)
	}
	d.Reset()
	if d.Stats() != (Stats{}) {
		t.Fatalf("stats after Reset: %+v", d.Stats())
	}
	if !bytes.Equal(d.Peek(2).Resolve(), make([]byte, bs)) {
		t.Fatal("content survived Reset")
	}
	// Post-Reset service starts with a cold arm, like a fresh device.
	w, err := d.ReadBlocks(0, make([]mem.Buf, 1))
	if err != nil {
		t.Fatal(err)
	}
	fresh := DefaultModel()
	if w.Micros() != fresh.SeekUS+fresh.FixedUS+fresh.PerByteUS*bs {
		t.Fatalf("post-Reset wait %v not cold-arm", w)
	}
}

// The zero Model normalizes to the defaults; a partially set one is
// taken literally.
func TestModelNormalization(t *testing.T) {
	_, d := newDev(t, Model{})
	if d.Model() != DefaultModel() {
		t.Fatalf("zero model normalized to %+v", d.Model())
	}
	_, lit := newDev(t, Model{SeekUS: 5})
	if lit.Model() != (Model{SeekUS: 5}) {
		t.Fatalf("literal model perturbed: %+v", lit.Model())
	}
}

// BenchmarkDeviceRead times a direct read of written blocks into a DMA
// target: the device side of Share and EmulatedShare file input.
func BenchmarkDeviceRead(b *testing.B) {
	for _, blocks := range []int{1, 4, 15} {
		b.Run(fmt.Sprintf("blocks=%d", blocks), func(b *testing.B) {
			d, err := New(sim.New(), Model{}, bs, 64)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := d.Write(0, mem.BufBytes(pattern(5, blocks*bs))); err != nil {
				b.Fatal(err)
			}
			target := &hostBuffer{data: make([]byte, blocks*bs)}
			b.ReportAllocs()
			b.SetBytes(int64(blocks * bs))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.Read(0, blocks, target); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
