package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary serve as the speed-probe child, as the
// benchmark binary does.
func TestMain(m *testing.M) {
	serveIfSpeedProbe()
	os.Exit(m.Run())
}

// perturb returns a copy of ref with one item changed: the first
// fingerprint of a "[]" sequence, or a whole digest otherwise.
func perturb(t *testing.T, ref *reference, kind, key string) *reference {
	t.Helper()
	out := &reference{Seed: ref.Seed, Always: map[string]string{}, Seeded: map[string]string{}, seedBound: true}
	for k, v := range ref.Always {
		out.Always[k] = v
	}
	for k, v := range ref.Seeded {
		out.Seeded[k] = v
	}
	items := out.Seeded
	if kind == "always" {
		items = out.Always
	}
	v, ok := items[key]
	if !ok || len(v) < 8 {
		t.Fatalf("reference has no %s item %q", kind, key)
	}
	flip := "0"
	if v[0] == '0' {
		flip = "1"
	}
	items[key] = flip + v[1:]
	return out
}

// recorded runs one pass of b and returns it with its own outputs as
// the reference.
func recorded(t *testing.T, b bench) *reference {
	t.Helper()
	if err := b.setup(); err != nil {
		t.Fatal(err)
	}
	if err := b.run(&recorder{}); err != nil {
		t.Fatal(err)
	}
	ref := b.reference()
	ref.seedBound = true
	if p := b.check(ref); len(p) != 0 {
		t.Fatalf("pass misses its own reference: %v", p)
	}
	return ref
}

func TestPerturbedReferenceIsAMiss(t *testing.T) {
	cases := []struct {
		name      string
		b         bench
		kind, key string
	}{
		{"storage op", &storageMix{seed: 3}, "seeded", "ops[]"},
		{"storage device", &storageMix{seed: 3}, "seeded", "device"},
		{"paper table", &paperEval{seed: 3}, "always", "Table 7"},
		{"paper off-grid point", &paperEval{seed: 3}, "seeded", "offgrid[]"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ref := recorded(t, c.b)
			bad := perturb(t, ref, c.kind, c.key)
			if p := c.b.check(bad); len(p) != 1 {
				t.Fatalf("perturbed %s %q: %d misses %v, want 1", c.kind, c.key, len(p), p)
			}
			// Another seed skips the seeded items but still checks the
			// seed-independent ones.
			bad.seedBound = false
			want := 0
			if c.kind == "always" {
				want = 1
			}
			if p := c.b.check(bad); len(p) != want {
				t.Fatalf("other seed: %d misses %v, want %d", len(p), p, want)
			}
			// A run against the perturbed reference reports the miss.
			bad.seedBound = true
			rep, err := measuredRun(c.b, bad, time.Now())
			if err != nil {
				t.Fatal(err)
			}
			if rep.Result.Correct || rep.Result.Failed != 1 || rep.Result.Metrics["completed_frac"].Value >= 1 {
				t.Fatalf("perturbed reference: correct=%v failed=%d completed_frac=%v",
					rep.Result.Correct, rep.Result.Failed, rep.Result.Metrics["completed_frac"].Value)
			}
		})
	}
}

func TestClusterPerturbedDigestIsAMiss(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the whole grid")
	}
	c := &clusterLoop{seed: 3}
	ref := recorded(t, c)
	key := c.points[0].String()
	if p := c.check(perturb(t, ref, "seeded", key)); len(p) != 1 || !strings.Contains(p[0], key) {
		t.Fatalf("perturbed point digest: misses %v, want one for %s", p, key)
	}
}

func TestEqualWorkGuard(t *testing.T) {
	s := &storageMix{seed: 5}
	ref := recorded(t, s)
	w := s.work()
	if w["ops"] != stoOps || w["completed"] != stoOps || w["engine_steps"] == 0 {
		t.Fatalf("work counts %v", w)
	}
	if err := s.setup(); err != nil {
		t.Fatal(err)
	}
	if err := s.run(&recorder{}); err != nil {
		t.Fatal(err)
	}
	if p := s.check(ref); len(p) != 0 {
		t.Fatalf("second pass: %v", p)
	}
	for k, v := range s.work() {
		if w[k] != v {
			t.Fatalf("work count %s differs between passes: %d then %d", k, w[k], v)
		}
	}
}

func TestTailOf(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, name := tailOf(xs)
	if v != 90 || name != "p90 of n=100" {
		t.Fatalf("tail of 1..100 = %v %q, want 90 p90", v, name)
	}
	if v, _ := tailOf(xs[:5]); v != 5 {
		t.Fatalf("tail of 5 samples = %v, want the max", v)
	}
}

func TestScaleBySpeed(t *testing.T) {
	const n = speedNominalUS
	xs := []float64{10, 10, 10, 10, 10, 10, 10, 10}
	at := []int{0, 2, 4, 6, 8} // four passes of two times each
	// The host halves its speed from boundary 2 on: the first pass reads
	// as measured, the last at half its time.
	got := scaleBySpeed(xs, at, []float64{n, n, 2 * n, 2 * n, 2 * n})
	if got[0] != 10 || got[1] != 10 || got[6] != 5 || got[7] != 5 {
		t.Fatalf("host slowing down: %v", got)
	}
	// One probe a preemption slowed moves no pass.
	got = scaleBySpeed(xs, at, []float64{n, n, 9 * n, n, n})
	for i, v := range got {
		if v != 10 {
			t.Fatalf("one slow probe: time %d scaled to %v", i, v)
		}
	}
	if xs[6] != 10 {
		t.Fatalf("scaleBySpeed changed its input: %v", xs)
	}
}

func TestParseFit(t *testing.T) {
	for cell, want := range map[string][2]float64{
		"0.0998 B + 125": {0.0998, 125},
		"0.1 B + -3":     {0.1, -3},
		"24":             {0, 24},
	} {
		got, err := parseFit(cell)
		if err != nil || got != want {
			t.Fatalf("parseFit(%q) = %v, %v; want %v", cell, got, err, want)
		}
	}
	if _, err := parseFit("n/a"); err == nil {
		t.Fatal("parseFit accepted a non-number")
	}
}

func TestCompareCountsEveryMissingOp(t *testing.T) {
	want := map[string]string{"ops[]": "0000000100000002", "x": "a"}
	got := map[string]string{"ops[]": "00000001", "x": "b", "y": "c"}
	if p := compareItems("seeded", want, got); len(p) != 3 {
		t.Fatalf("misses %v, want a missing op, a changed item and an unknown item", p)
	}
}

func TestBenchmarkJSONListsTheMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Fatalf("%s %d: BENCHMARK.json has %s (%s), the benchmark %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Fatalf("workload %d: BENCHMARK.json has %s, the benchmark %s", i, spec.Workloads[i].Name, w.name)
		}
	}
}
