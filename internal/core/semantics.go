// Package core implements Genie, the I/O framework that is the primary
// contribution of Brustoloni & Steenkiste (OSDI '96): an I/O data path
// that lets applications select any buffering semantics in the paper's
// taxonomy, on top of the simulated VM (package vm), network (package
// netsim), and cost model (package cost) substrates.
//
// The taxonomy classifies data passing semantics along three dimensions:
//
//   - buffer allocation: application-allocated (the application chooses
//     input buffer locations and keeps its output buffers) versus
//     system-allocated (the system allocates input buffers and consumes
//     output buffers);
//   - guaranteed integrity: strong (output data is immune to later
//     overwrites; input buffers are never observed in inconsistent
//     states) versus weak (I/O happens in place and the application can
//     interfere);
//   - optimization: basic versus emulated (transparently optimized with
//     the paper's techniques: TCOW, input alignment, region hiding,
//     region caching, input-disabled pageout).
//
// Output follows the prepare/dispose stages of Table 2; input follows
// the prepare/ready/dispose stages of Tables 3 (early demultiplexed
// device buffering), 4 (pooled in-host buffering), and Section 6.2.3
// (outboard buffering).
package core

import (
	"fmt"
	"strings"
)

// Semantics selects a buffering semantics from the paper's taxonomy.
type Semantics int

// The eight semantics.
const (
	// Copy is classic Unix buffering: copy through system buffers.
	Copy Semantics = iota
	// EmulatedCopy is copy semantics optimized with TCOW and input
	// alignment: same API, same integrity, no copies for long data.
	EmulatedCopy
	// Share performs I/O in place with the copy API but weak integrity,
	// wiring buffers during I/O.
	Share
	// EmulatedShare is share optimized with input-disabled pageout:
	// page referencing is the only data passing overhead.
	EmulatedShare
	// Move is V-style buffering: output unmaps the buffer, input maps a
	// fresh system buffer into the address space.
	Move
	// EmulatedMove is move optimized with region hiding and caching:
	// the same API and integrity, but I/O happens in place.
	EmulatedMove
	// WeakMove is system-allocated, weak-integrity buffering with
	// region caching (buffers stay mapped, contents indeterminate).
	WeakMove
	// EmulatedWeakMove is weak move optimized with input-disabled
	// pageout (no wiring).
	EmulatedWeakMove
	numSemantics
)

var semanticsNames = [...]string{
	"copy", "emulated copy", "share", "emulated share",
	"move", "emulated move", "weak move", "emulated weak move",
}

func (s Semantics) String() string {
	if s >= 0 && int(s) < len(semanticsNames) {
		return semanticsNames[s]
	}
	return "Semantics?"
}

// ParseSemantics returns the semantics whose String() is name, ignoring
// case and surrounding space. A hyphen may stand in for each space, so
// "emulated-copy" needs no shell quoting.
func ParseSemantics(name string) (Semantics, error) {
	want := strings.ReplaceAll(strings.ToLower(strings.TrimSpace(name)), "-", " ")
	for i, n := range semanticsNames {
		if n == want {
			return Semantics(i), nil
		}
	}
	names := make([]string, len(semanticsNames))
	for i, n := range semanticsNames {
		names[i] = strings.ReplaceAll(n, " ", "-")
	}
	return 0, fmt.Errorf("core: unknown semantics %q (want one of %s)",
		strings.TrimSpace(name), strings.Join(names, ", "))
}

// Valid reports whether s names a semantics in the taxonomy.
func (s Semantics) Valid() bool { return s >= 0 && s < numSemantics }

// SystemAllocated reports whether the system allocates and consumes the
// application's I/O buffers (the move family).
func (s Semantics) SystemAllocated() bool {
	switch s {
	case Move, EmulatedMove, WeakMove, EmulatedWeakMove:
		return true
	}
	return false
}

// WeakIntegrity reports whether I/O is performed in place with weak
// integrity guarantees.
func (s Semantics) WeakIntegrity() bool {
	switch s {
	case Share, EmulatedShare, WeakMove, EmulatedWeakMove:
		return true
	}
	return false
}

// Emulated reports whether s is the optimized variant of its basic
// semantics.
func (s Semantics) Emulated() bool {
	switch s {
	case EmulatedCopy, EmulatedShare, EmulatedMove, EmulatedWeakMove:
		return true
	}
	return false
}

// Basic returns the unoptimized semantics s emulates (s itself if basic).
func (s Semantics) Basic() Semantics {
	switch s {
	case EmulatedCopy:
		return Copy
	case EmulatedShare:
		return Share
	case EmulatedMove:
		return Move
	case EmulatedWeakMove:
		return WeakMove
	}
	return s
}

// AllSemantics returns the eight semantics in taxonomy order.
func AllSemantics() []Semantics {
	out := make([]Semantics, numSemantics)
	for i := range out {
		out[i] = Semantics(i)
	}
	return out
}
