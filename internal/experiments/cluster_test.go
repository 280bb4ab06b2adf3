package experiments

import "testing"

// TestIncastDeterministicAcrossWorkers runs a scaled-down incast (the
// full 64-host sweep is geniebench's job) and checks the digest and
// delivery count are identical across both runs on fresh clusters.
func TestIncastDeterministicAcrossWorkers(t *testing.T) {
	rep, err := RunIncast(ClusterBenchConfig{
		Hosts:    17,
		Rounds:   3,
		MsgBytes: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Deterministic {
		t.Fatalf("incast digests diverge across runs: %+v", rep.Runs)
	}
	wantDeliveries := uint64(16 * 3)
	if len(rep.Runs) != 2 {
		t.Fatalf("got %d runs, want 2", len(rep.Runs))
	}
	for i, r := range rep.Runs {
		if r.Deliveries != wantDeliveries {
			t.Fatalf("run %d delivered %d, want %d", i, r.Deliveries, wantDeliveries)
		}
	}
	if rep.Runs[0].FinalTimeUS <= 0 {
		t.Fatal("final simulated time not positive")
	}
}

// TestRingDeterministicAcrossWorkers does the same for the Bytes-plane
// halo exchange.
func TestRingDeterministicAcrossWorkers(t *testing.T) {
	rep, err := RunRing(ClusterBenchConfig{
		Hosts:    6,
		Rounds:   3,
		MsgBytes: 16384,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Deterministic {
		t.Fatalf("ring digests diverge across runs: %+v", rep.Runs)
	}
	// Every link delivers both directions every round.
	wantDeliveries := uint64(6 * 2 * 3)
	if len(rep.Runs) != 2 {
		t.Fatalf("got %d runs, want 2", len(rep.Runs))
	}
	for i, r := range rep.Runs {
		if r.Deliveries != wantDeliveries {
			t.Fatalf("run %d delivered %d, want %d", i, r.Deliveries, wantDeliveries)
		}
	}
}

// TestIncastFullScale pins the deliverable configuration itself: the
// 64-host incast, run twice. Kept to two rounds so the suite stays
// fast; geniebench cluster runs the full version.
func TestIncastFullScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale incast skipped in -short")
	}
	rep, err := RunIncast(ClusterBenchConfig{
		Rounds: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Hosts != 64 {
		t.Fatalf("default hosts = %d, want 64", rep.Hosts)
	}
	if !rep.Deterministic {
		t.Fatalf("64-host incast digests diverge: %+v", rep.Runs)
	}
	if want := uint64(63 * 2); rep.Runs[0].Deliveries != want {
		t.Fatalf("deliveries = %d, want %d", rep.Runs[0].Deliveries, want)
	}
}
