package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// refDir holds one committed reference per workload, relative to the
// repository root (the benchmark runs from there).
const refDir = "perfbench/refs"

// reference is a workload's recorded outputs. Always items do not
// depend on the seed and are checked on every run; Seeded items are
// checked only when the run's seed is the recorded one. A key ending
// in "[]" holds a sequence of 8-hex-digit fingerprints, one per op,
// compared op by op so that every mismatching op counts as one miss.
type reference struct {
	Seed   uint64            `json:"seed"`
	Always map[string]string `json:"always"`
	Seeded map[string]string `json:"seeded"`

	seedBound bool // false: the run's seed differs, skip Seeded
}

func refPath(workload string) string { return filepath.Join(refDir, workload+".json") }

func loadReference(workload string) (*reference, error) {
	data, err := os.ReadFile(refPath(workload))
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	ref := &reference{seedBound: true}
	if err := json.Unmarshal(data, ref); err != nil {
		return nil, fmt.Errorf("reference %s: %w", refPath(workload), err)
	}
	return ref, nil
}

// recordReference runs one pass of the workload and writes its outputs
// as the reference.
func recordReference(workload string, seed uint64, b bench) error {
	if err := b.setup(); err != nil {
		return err
	}
	if err := b.run(&recorder{}); err != nil {
		return err
	}
	ref := b.reference()
	ref.Seed = seed
	data, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(refPath(workload), append(data, '\n'), 0o644)
}

// compare returns one problem per output of got that misses ref.
func (ref *reference) compare(got *reference) []string {
	var out []string
	out = append(out, compareItems("always", ref.Always, got.Always)...)
	if ref.seedBound {
		out = append(out, compareItems("seeded", ref.Seeded, got.Seeded)...)
	}
	return out
}

func compareItems(kind string, want, got map[string]string) []string {
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []string
	for _, k := range keys {
		w, g := want[k], got[k]
		if !strings.HasSuffix(k, "[]") {
			if w != g {
				out = append(out, fmt.Sprintf("%s %q: got %s, want %s", kind, k, g, w))
			}
			continue
		}
		n := max(len(w), len(g)) / 8
		for i := 0; i < n; i++ {
			if fpAt(w, i) != fpAt(g, i) {
				out = append(out, fmt.Sprintf("%s %s%d: got %s, want %s", kind, strings.TrimSuffix(k, "[]")+"#", i, fpAt(g, i), fpAt(w, i)))
			}
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			out = append(out, fmt.Sprintf("%s %q: not in the reference", kind, k))
		}
	}
	return out
}

func fpAt(seq string, i int) string {
	if (i+1)*8 > len(seq) {
		return "missing"
	}
	return seq[i*8 : (i+1)*8]
}

// digest returns the FNV-64a fingerprint of s in hex.
func digest(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}

// fp32 returns an 8-hex-digit fingerprint of exact float values, for
// per-op sequences.
func fp32(vals ...float64) string {
	h := fnv.New32a()
	var b [8]byte
	for _, v := range vals {
		u := math.Float64bits(v)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return fmt.Sprintf("%08x", h.Sum32())
}
