package core

import (
	"strings"
	"testing"
)

func TestTaxonomyDimensions(t *testing.T) {
	cases := []struct {
		sem      Semantics
		sysAlloc bool
		weak     bool
		emulated bool
		basic    Semantics
	}{
		{Copy, false, false, false, Copy},
		{EmulatedCopy, false, false, true, Copy},
		{Share, false, true, false, Share},
		{EmulatedShare, false, true, true, Share},
		{Move, true, false, false, Move},
		{EmulatedMove, true, false, true, Move},
		{WeakMove, true, true, false, WeakMove},
		{EmulatedWeakMove, true, true, true, WeakMove},
	}
	for _, c := range cases {
		if c.sem.SystemAllocated() != c.sysAlloc {
			t.Errorf("%v: SystemAllocated = %t", c.sem, !c.sysAlloc)
		}
		if c.sem.WeakIntegrity() != c.weak {
			t.Errorf("%v: WeakIntegrity = %t", c.sem, !c.weak)
		}
		if c.sem.Emulated() != c.emulated {
			t.Errorf("%v: Emulated = %t", c.sem, !c.emulated)
		}
		if c.sem.Basic() != c.basic {
			t.Errorf("%v: Basic = %v", c.sem, c.sem.Basic())
		}
		if !c.sem.Valid() {
			t.Errorf("%v: not valid", c.sem)
		}
	}
	if Semantics(99).Valid() || Semantics(-1).Valid() {
		t.Error("out-of-range semantics valid")
	}
	if len(AllSemantics()) != 8 {
		t.Errorf("AllSemantics = %d entries", len(AllSemantics()))
	}
	for _, s := range AllSemantics() {
		if s.String() == "Semantics?" {
			t.Errorf("semantics %d unnamed", int(s))
		}
	}
}

func TestTaxonomyIsComplete(t *testing.T) {
	// The three dimensions (2 alloc x 2 integrity x 2 optimization)
	// yield exactly the eight semantics: every combination is covered
	// exactly once.
	seen := make(map[[3]bool]Semantics)
	for _, s := range AllSemantics() {
		key := [3]bool{s.SystemAllocated(), s.WeakIntegrity(), s.Emulated()}
		if prev, dup := seen[key]; dup {
			t.Errorf("%v and %v occupy the same taxonomy cell", prev, s)
		}
		seen[key] = s
	}
	if len(seen) != 8 {
		t.Errorf("taxonomy covers %d cells, want 8", len(seen))
	}
}

// FuzzParseSemantics checks that no input panics ParseSemantics, that
// every name parses to its semantics hyphenated and upper-cased, and
// that whatever parses re-parses from its String() to the same value.
func FuzzParseSemantics(f *testing.F) {
	for _, s := range AllSemantics() {
		for _, name := range []string{
			strings.ReplaceAll(s.String(), " ", "-"),
			strings.ToUpper(s.String()),
		} {
			if got, err := ParseSemantics(name); err != nil || got != s {
				f.Fatalf("ParseSemantics(%q) = %v, %v; want %v", name, got, err, s)
			}
			f.Add(name)
		}
	}
	f.Add("Emulated-Copy ")
	f.Add("telepathy")
	f.Add("")
	f.Fuzz(func(t *testing.T, in string) {
		sem, err := ParseSemantics(in)
		if err != nil {
			return
		}
		if again, err := ParseSemantics(sem.String()); err != nil || again != sem {
			t.Fatalf("ParseSemantics(%q) = %v, but its String() re-parses to %v, %v", in, sem, again, err)
		}
	})
}
