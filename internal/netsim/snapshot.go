package netsim

import "math/bits"

// Transmit snapshots on the bytes plane. An in-place output is read out
// of the sender's pages when its frame is serialized; that snapshot has
// to outlive the transmit call, because the frame is delivered later on
// the simulated clock. It does not have to outlive the delivery: every
// input architecture copies the frame out of it on arrival (early-
// demultiplexing DMA, overlay scatter) or drops the frame. So the
// snapshot's storage comes from a free list on the sending adapter and
// goes back once the receiver is done with it, instead of being a fresh
// allocation per frame.
//
// Ownership is explicit: a Snapshot value travels with its frame from
// TransmitSnapshot through the Link or Fabric hop to the receiving
// adapter, which releases it after its copy or on a drop. The sender
// releases it when the wire drops the frame. Where two references to the bytes can outlive one delivery,
// the frame travels without its Snapshot and the storage is simply left
// to the garbage collector:
//
//   - a duplicated frame, whose two deliveries share the bytes;
//   - a fragmented datagram, whose fragments slice the bytes;
//   - outboard staging, whose staged buffer may alias the payload.
//
// The free list is host-side bookkeeping that the simulation never
// observes: no simulated time, cost, counter or byte depends on it. It
// is not safe for concurrent use, and need not be: a testbed or a
// cluster runs all of its hosts on one goroutine (cluster shards
// advance serially), so an adapter's free list is only ever touched by
// that goroutine, including when a receiving host returns a buffer to
// its sender's list.

// Snapshot buffers come in power-of-two size classes from 64 B up to
// MaxFrame rounded up (64 KB).
const (
	snapshotMinClass = 6
	snapshotClasses  = 17 - snapshotMinClass
	// snapshotKeep bounds the buffers kept per size class; more frames
	// than this in flight at once allocate, and the surplus is dropped
	// when they return.
	snapshotKeep = 32
)

// snapshotPool is a bounded free list of transmit buffers, bucketed by
// power-of-two capacity so acks, requests and responses of different
// sizes reuse buffers of their own class.
type snapshotPool struct {
	free [snapshotClasses][][]byte
}

func snapshotClass(n int) int {
	return max(bits.Len(uint(n-1)), snapshotMinClass) - snapshotMinClass
}

func (p *snapshotPool) get(n int) []byte {
	c := snapshotClass(n)
	if k := len(p.free[c]); k > 0 {
		b := p.free[c][k-1]
		p.free[c] = p.free[c][:k-1]
		return b[:n]
	}
	return make([]byte, n, 1<<(c+snapshotMinClass))
}

func (p *snapshotPool) put(b []byte) {
	c := snapshotClass(cap(b))
	if len(p.free[c]) < snapshotKeep {
		p.free[c] = append(p.free[c], b)
	}
}

// Snapshot is a bytes-plane transmit buffer lent by an adapter's free
// list (NIC.NewSnapshot). The zero Snapshot lends nothing.
type Snapshot struct {
	pool *snapshotPool
	buf  []byte
}

// NewSnapshot lends a size-byte transmit buffer from the adapter's free
// list. Its contents are stale: the caller overwrites all of them and
// then either hands it to TransmitSnapshot or calls Release.
func (n *NIC) NewSnapshot(size int) Snapshot {
	return Snapshot{pool: &n.snaps, buf: n.snaps.get(size)}
}

// Bytes returns the lent storage.
func (s Snapshot) Bytes() []byte { return s.buf }

// Release returns the storage to the free list it came from. The caller
// must hold the only reference to the bytes; releasing the zero
// Snapshot does nothing.
func (s Snapshot) Release() {
	if s.pool != nil {
		s.pool.put(s.buf)
	}
}
