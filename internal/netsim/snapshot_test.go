package netsim

import (
	"bytes"
	"testing"

	"repro/internal/faults"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Snapshot lifetime: a transmit snapshot's storage returns to the
// sender's free list once the receiver has copied the frame out, and
// the sender immediately reuses it for its next frame. These tests keep
// the sender transmitting new bytes while earlier frames are still in
// flight, staged or awaiting a duplicate, so a snapshot recycled too
// early shows up as a delivery carrying some later frame's bytes.

const (
	snapFrameLen = 256
	snapFrames   = 48
	snapGapUS    = 20 // transmit spacing, well under the link's 130 us latency
)

// snapFrame returns frame i's bytes: every frame differs from every
// other in every byte, so a delivery identifies its frame by content.
func snapFrame(i int) []byte {
	b := make([]byte, snapFrameLen)
	for j := range b {
		b[j] = byte(i*31 + j*7 + 1)
	}
	return b
}

// transmitSnapshots schedules snapFrames transmissions from a, one
// every snapGapUS, each in a snapshot lent by a's free list.
func transmitSnapshots(t *testing.T, eng *sim.Engine, a *NIC) {
	t.Helper()
	for i := 0; i < snapFrames; i++ {
		eng.ScheduleAt(sim.Time(i*snapGapUS), func() {
			snap := a.NewSnapshot(snapFrameLen)
			copy(snap.Bytes(), snapFrame(i))
			if err := a.TransmitSnapshot(1, mem.BufBytes(snap.Bytes()), snap, nil); err != nil {
				t.Error(err)
			}
		})
	}
}

// wantDeliveries replays the sender's wire-fault decisions on a twin
// injector (injectWire's order: corrupt, drop, reorder, duplicate) and
// returns, per frame, the bytes each delivery must carry and how many
// deliveries there must be.
func wantDeliveries(t *testing.T, spec faults.Spec) ([][]byte, []int) {
	twin := newInjector(t, spec)
	want := make([][]byte, snapFrames)
	count := make([]int, snapFrames)
	for i := range want {
		want[i] = snapFrame(i)
		if off, ok := twin.CorruptFrame(snapFrameLen); ok {
			want[i][off] ^= 0x55
		}
		if twin.DropFrame() {
			continue
		}
		twin.ReorderFrame()
		count[i] = 1
		if twin.DuplicateFrame() {
			count[i] = 2
		}
	}
	return want, count
}

// checkDeliveries matches every delivery to the frame whose bytes it
// carries and compares the per-frame counts.
func checkDeliveries(t *testing.T, got [][]byte, want [][]byte, count []int) {
	t.Helper()
	seen := make([]int, len(want))
next:
	for k, d := range got {
		for i, w := range want {
			if bytes.Equal(d, w) {
				seen[i]++
				continue next
			}
		}
		t.Fatalf("delivery %d carries bytes no frame was sent with: %x...", k, d[:min(8, len(d))])
	}
	for i := range want {
		if seen[i] != count[i] {
			t.Errorf("frame %d delivered %d times, want %d", i, seen[i], count[i])
		}
	}
}

// earlyDemuxSink posts enough receive buffers for every delivery and
// records each delivery's bytes at arrival.
func earlyDemuxSink(b *NIC) *[][]byte {
	var got [][]byte
	for i := 0; i < 2*snapFrames; i++ {
		b.PostInput(1, &hostBuffer{data: make([]byte, snapFrameLen)})
	}
	b.SetRxHandler(func(p Packet) {
		got = append(got, bytes.Clone(p.Target.(*hostBuffer).data[:p.Length]))
	})
	return &got
}

func TestSnapshotLifetimeWireFaults(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec faults.Spec
	}{
		// 0.9 is the injector's highest rate; a duplicated frame must not
		// be recycled by its first delivery.
		{"duplicate", faults.Spec{Seed: 7, Duplicate: 0.9}},
		{"drop", faults.Spec{Seed: 7, Drop: 0.5}},
		{"corrupt", faults.Spec{Seed: 7, Corrupt: 0.5}},
		{"mixed", faults.Spec{Seed: 7, Drop: 0.2, Duplicate: 0.5, Corrupt: 0.3, Reorder: 0.3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, a, b := newPair(t,
				NICConfig{Name: "tx", Buffering: EarlyDemux},
				NICConfig{Name: "rx", Buffering: EarlyDemux})
			a.SetFaultInjector(newInjector(t, tc.spec))
			got := earlyDemuxSink(b)
			transmitSnapshots(t, eng, a)
			eng.Run()
			want, count := wantDeliveries(t, tc.spec)
			checkDeliveries(t, *got, want, count)
		})
	}
}

// TestSnapshotLifetimeDeferredRedelivery: a frame whose pool admission
// is denied waits for redelivery holding its snapshot, while the sender
// keeps transmitting.
func TestSnapshotLifetimeDeferredRedelivery(t *testing.T) {
	for _, buffering := range []InputBuffering{Pooled, OutboardBuffering} {
		t.Run(buffering.String(), func(t *testing.T) {
			pm := mem.New(64, pageSize)
			pool, err := NewOverlayPool(pm, 8)
			if err != nil {
				t.Fatal(err)
			}
			eng, a, b := newPair(t,
				NICConfig{Name: "tx", Buffering: EarlyDemux},
				NICConfig{Name: "rx", Buffering: buffering, Pool: pool,
					Outboard: NewOutboardMemory(snapFrames * snapFrameLen)})
			b.SetFaultInjector(newInjector(t, faults.Spec{Seed: 3, PoolDeny: 0.5}))
			var got [][]byte
			b.SetRxHandler(func(p Packet) {
				if p.Overlay != nil {
					got = append(got, mem.GatherFrames(p.Overlay, p.OverlayOff, p.Length).Resolve())
					pool.Put(p.Overlay...)
					return
				}
				got = append(got, bytes.Clone(p.Outboard.Bytes()))
				p.Outboard.Free()
			})
			transmitSnapshots(t, eng, a)
			eng.Run()
			if b.Stats().Retried == 0 {
				t.Fatal("no delivery was deferred")
			}
			want, count := wantDeliveries(t, faults.Spec{Seed: 1}) // no wire faults
			if d := b.Stats().Dropped; d != 0 {
				t.Fatalf("%d frames exhausted their redeliveries; pick another seed", d)
			}
			checkDeliveries(t, got, want, count)
		})
	}
}

// TestSnapshotLifetimeOutboardStaging: a staged outboard frame may alias
// its snapshot, so it must outlive the staging. The host here DMAs each
// staged frame out only after later frames have arrived, as a dispose
// that runs on the simulated clock does.
func TestSnapshotLifetimeOutboardStaging(t *testing.T) {
	eng, a, b := newPair(t,
		NICConfig{Name: "tx", Buffering: EarlyDemux},
		NICConfig{Name: "rx", Buffering: OutboardBuffering,
			Outboard: NewOutboardMemory(snapFrames * snapFrameLen)})
	var got [][]byte
	b.SetRxHandler(func(p Packet) {
		eng.Schedule(5*snapGapUS, func() {
			got = append(got, bytes.Clone(p.Outboard.Bytes()))
			p.Outboard.Free()
		})
	})
	transmitSnapshots(t, eng, a)
	eng.Run()
	want, count := wantDeliveries(t, faults.Spec{Seed: 1})
	checkDeliveries(t, got, want, count)
}

// TestSnapshotReuse: a released snapshot's storage is lent again for a
// frame of the same size class, and the free list never holds more than
// snapshotKeep buffers per class.
func TestSnapshotReuse(t *testing.T) {
	n := &NIC{}
	s := n.NewSnapshot(100)
	if len(s.Bytes()) != 100 || cap(s.Bytes()) != 128 {
		t.Fatalf("snapshot len %d cap %d, want 100 and 128", len(s.Bytes()), cap(s.Bytes()))
	}
	s.Release()
	if r := n.NewSnapshot(120); &r.Bytes()[0] != &s.Bytes()[0] {
		t.Fatal("released snapshot not reused within its size class")
	}
	if r := n.NewSnapshot(129); &r.Bytes()[0] == &s.Bytes()[0] {
		t.Fatal("snapshot lent across size classes")
	}
	var held []Snapshot
	for i := 0; i < 2*snapshotKeep; i++ {
		held = append(held, n.NewSnapshot(MaxFrame))
	}
	for _, h := range held {
		h.Release()
	}
	if k := len(n.snaps.free[snapshotClass(MaxFrame)]); k != snapshotKeep {
		t.Fatalf("free list holds %d buffers, want the bound %d", k, snapshotKeep)
	}
	Snapshot{}.Release() // the zero Snapshot lends nothing
}
