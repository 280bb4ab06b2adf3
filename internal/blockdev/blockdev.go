// Package blockdev simulates a block storage device under the same
// discrete-event clock and DMA abstractions as the network adapters:
// requests are serialized on the device arm, cost a seek when they are
// not sequential with the previous access, and transfer at a per-byte
// rate into or out of data-plane buffers. Content is held as mem.Buf
// values, so on the symbolic plane a payload written to disk and read
// back is the same descriptor run — provenance survives the storage
// path exactly as it survives the wire.
//
// The device prices itself with its own Model rather than extending
// cost.Model: the paper's cost model is the fingerprinted contract of
// the network experiments, and disk parameters must not perturb its
// fingerprint (which keys the measurement memo).
package blockdev

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// Model prices device requests, in microseconds. The defaults are
// mid-1990s disk ballpark figures: ~10 ms average seek+rotation for a
// discontiguous access, fixed per-request controller overhead, and a
// streaming rate of ~10 MB/s.
type Model struct {
	// SeekUS is charged when a request does not start at the block
	// immediately following the previous request's last block.
	SeekUS float64
	// FixedUS is the per-request controller and command overhead.
	FixedUS float64
	// PerByteUS is the media transfer time per byte.
	PerByteUS float64
}

// DefaultModel returns the baseline disk parameters.
func DefaultModel() Model {
	return Model{SeekUS: 10000, FixedUS: 300, PerByteUS: 0.1}
}

// normalized substitutes the defaults for the zero Model; a Model with
// any field set is taken literally (a deliberately free device is a
// legitimate ablation).
func (m Model) normalized() Model {
	if m == (Model{}) {
		return DefaultModel()
	}
	return m
}

// Stats counts device activity since construction or Reset.
type Stats struct {
	Reads         uint64 // read requests
	Writes        uint64 // write requests
	BlocksRead    uint64
	BlocksWritten uint64
	Seeks         uint64  // requests that paid the seek cost
	BusyUS        float64 // total service time accumulated on the arm
}

// Device is one simulated disk: nblocks blocks of blockSize bytes.
// Requests are serialized — a request issued while the device is busy
// waits for the arm — and each returns the wait the issuer observes
// (queueing plus service), so callers fold device time into operation
// latency without callback plumbing. Content transfer happens at issue
// time; the simulation's content layer is time-independent because the
// harnesses issue conflicting accesses in program order.
type Device struct {
	eng       *sim.Engine
	model     Model
	blockSize int
	nblocks   int
	store     map[int]mem.Buf // block -> content (absent = zeros)
	busyUntil sim.Time
	nextLBA   int // block following the previous request; -1 = unknown (seek)
	stats     Stats
}

// New builds a device of nblocks blocks of blockSize bytes each. Zero
// model fields take the defaults.
func New(eng *sim.Engine, model Model, blockSize, nblocks int) (*Device, error) {
	if blockSize <= 0 || nblocks <= 0 {
		return nil, fmt.Errorf("blockdev: bad geometry %d x %d", nblocks, blockSize)
	}
	return &Device{
		eng:       eng,
		model:     model.normalized(),
		blockSize: blockSize,
		nblocks:   nblocks,
		store:     make(map[int]mem.Buf),
		nextLBA:   -1,
	}, nil
}

// BlockSize returns the device block size in bytes.
func (d *Device) BlockSize() int { return d.blockSize }

// NumBlocks returns the device capacity in blocks.
func (d *Device) NumBlocks() int { return d.nblocks }

// Model returns the device's cost parameters (normalized).
func (d *Device) Model() Model { return d.model }

// Stats returns a snapshot of the activity counters.
func (d *Device) Stats() Stats { return d.stats }

// checkRange validates [block, block+count).
func (d *Device) checkRange(block, count int) error {
	if block < 0 || count <= 0 || block+count > d.nblocks {
		return fmt.Errorf("blockdev: range [%d,+%d) outside %d blocks", block, count, d.nblocks)
	}
	return nil
}

// Load installs content for a block with no simulated cost — media
// imaging for experiment setup. Content shorter than a block is
// zero-padded.
func (d *Device) Load(block int, b mem.Buf) error {
	if err := d.checkRange(block, 1); err != nil {
		return err
	}
	d.store[block] = d.pad(b)
	return nil
}

// Peek returns a block's content with no simulated cost (tests and
// verification oracles).
func (d *Device) Peek(block int) mem.Buf {
	if b, ok := d.store[block]; ok {
		return b
	}
	return mem.ZeroBuf(d.blockSize)
}

// pad extends content to exactly one block.
func (d *Device) pad(b mem.Buf) mem.Buf {
	if b.Len() > d.blockSize {
		b = b.Slice(0, d.blockSize)
	}
	if short := d.blockSize - b.Len(); short > 0 {
		b = b.Append(mem.ZeroBuf(short))
	}
	return b
}

// service accounts one request of count blocks starting at block and
// returns the wait the issuer observes: the time from now until the
// request completes, including queueing behind the busy arm.
func (d *Device) service(block, count int) sim.Duration {
	start := d.busyUntil.Max(d.eng.Now())
	svc := d.model.FixedUS + d.model.PerByteUS*float64(count*d.blockSize)
	if block != d.nextLBA {
		svc += d.model.SeekUS
		d.stats.Seeks++
	}
	d.busyUntil = start.Add(sim.Duration(svc))
	d.nextLBA = block + count
	d.stats.BusyUS += svc
	return d.busyUntil.Sub(d.eng.Now())
}

// read validates and accounts a read of count blocks starting at
// block, returning the wait until the data is available.
func (d *Device) read(block, count int) (sim.Duration, error) {
	if err := d.checkRange(block, count); err != nil {
		return 0, err
	}
	d.stats.Reads++
	d.stats.BlocksRead += uint64(count)
	return d.service(block, count), nil
}

// ReadBlocks reads len(dst) blocks starting at block into dst, one
// buffer per block, and returns the wait until the data is available.
// Each buffer aliases the device's stored block: stored blocks are
// immutable snapshots (Write replaces them, it never writes into
// them), so a read copies nothing and callers copy each block once,
// into its destination.
func (d *Device) ReadBlocks(block int, dst []mem.Buf) (sim.Duration, error) {
	wait, err := d.read(block, len(dst))
	if err != nil {
		return 0, err
	}
	for i := range dst {
		dst[i] = d.Peek(block + i)
	}
	return wait, nil
}

// Read DMAs count blocks starting at block into target (clipped to the
// target's length), one DMAWrite per block, returning the wait until
// the transfer completes. The target is the same DMA abstraction the
// network adapters write through, so in-place file input lands in
// referenced application pages exactly like in-place network input.
func (d *Device) Read(block, count int, target netsim.DMATarget) (sim.Duration, error) {
	wait, err := d.read(block, count)
	if err != nil {
		return 0, err
	}
	for i := 0; i < count; i++ {
		off := i * d.blockSize
		n := min(d.blockSize, target.Len()-off)
		if n <= 0 {
			break
		}
		target.DMAWrite(off, d.Peek(block+i).Slice(0, n))
	}
	return wait, nil
}

// Write stores data starting at block, returning the wait until the
// transfer completes. Data covering a partial final block zero-pads it
// (writes below block granularity belong to the page cache's
// read-modify-write, not the device).
func (d *Device) Write(block int, data mem.Buf) (sim.Duration, error) {
	count := (data.Len() + d.blockSize - 1) / d.blockSize
	if err := d.checkRange(block, count); err != nil {
		return 0, err
	}
	wait := d.service(block, count)
	d.stats.Writes++
	d.stats.BlocksWritten += uint64(count)
	for i := 0; i < count; i++ {
		n := min(d.blockSize, data.Len()-i*d.blockSize)
		d.store[block+i] = d.pad(data.Slice(i*d.blockSize, n))
	}
	return wait, nil
}

// Reset returns the device to its post-construction state: empty
// media, idle arm, zeroed counters. Harness recycling calls it after
// the engine clock rewinds so a recycled device schedules identically
// to a fresh one.
func (d *Device) Reset() {
	clear(d.store)
	d.busyUntil = 0
	d.nextLBA = -1
	d.stats = Stats{}
}
