package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Cluster mode with a small configuration: must report bit-identical
// digests, write the JSON document, and exit 0.
func TestCLIClusterMode(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "bench.json")
	code, stdout, stderr := runCLI(t,
		"cluster", "-hosts", "9", "-rounds", "2", "-bytes", "4096",
		"-json", jsonPath)
	if code != 0 {
		t.Fatalf("exit code %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "cluster incast:") || !strings.Contains(stdout, "cluster ring:") {
		t.Fatalf("stdout missing workload reports:\n%s", stdout)
	}
	if !strings.Contains(stdout, "bit-identical across runs") {
		t.Fatalf("stdout missing determinism verdict:\n%s", stdout)
	}
	buf, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc clusterDoc
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatalf("bad JSON document: %v", err)
	}
	if doc.Incast == nil || doc.Ring == nil {
		t.Fatal("JSON document missing a workload report")
	}
	if !doc.Incast.Deterministic || !doc.Ring.Deterministic {
		t.Fatalf("determinism not recorded: %+v", doc)
	}
	if doc.Incast.Hosts != 9 || len(doc.Incast.Runs) != 2 {
		t.Fatalf("incast report = %+v", doc.Incast)
	}
	if doc.NumCPU < 1 || doc.GOMAXPROCS < 1 {
		t.Fatalf("environment not recorded: %+v", doc)
	}
}

// Bad cluster flag values exit 2 with usage.
func TestCLIClusterBadFlags(t *testing.T) {
	code, _, stderr := runCLI(t, "cluster", "-hosts", "1")
	if code != 2 || !strings.Contains(stderr, "-hosts") {
		t.Fatalf("exit code %d, stderr:\n%s", code, stderr)
	}
	code, _, stderr = runCLI(t, "cluster", "-clusterworkers", "1,4")
	if code != 2 || !strings.Contains(stderr, "clusterworkers") {
		t.Fatalf("exit code %d for the removed worker flag, stderr:\n%s", code, stderr)
	}
}
