package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"repro/internal/experiments"
)

// runClusterCmd parses the cluster subcommand's flags. The canonical
// spellings are -hosts/-rounds/-bytes; the historical -cluster*
// prefixed names remain registered as aliases.
func runClusterCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("geniebench cluster", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opts clusterOptions
	fs.IntVar(&opts.hosts, "hosts", 64, "incast host count (1 receiver + N-1 senders)")
	fs.IntVar(&opts.hosts, "clusterhosts", 64, "alias for -hosts")
	fs.IntVar(&opts.rounds, "rounds", 4, "lockstep send/drain rounds per workload")
	fs.IntVar(&opts.rounds, "clusterrounds", 4, "alias for -rounds")
	fs.IntVar(&opts.msgBytes, "bytes", 8192, "incast message payload size in bytes")
	fs.IntVar(&opts.msgBytes, "clusterbytes", 8192, "alias for -bytes")
	fs.StringVar(&opts.jsonPath, "json", "", "write both reports as JSON to this path")
	parallel := fs.Int("parallel", 0, "worker goroutines for the harness (0 = leave default)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *parallel > 0 {
		experiments.SetParallelism(*parallel)
	}
	if opts.hosts < 2 {
		return usageErrf(fs, stderr, "-clusterhosts must be at least 2, got %d", opts.hosts)
	}
	return runCluster(opts, stdout, stderr)
}

// clusterOptions carries the -cluster flag settings into runCluster.
type clusterOptions struct {
	hosts    int
	rounds   int
	msgBytes int
	jsonPath string
}

// clusterDoc is the -json document of a -cluster run (BENCH_pr7.json in
// CI): both workloads' runs, the determinism verdict,
// and the environment the wall-clock times were taken on.
type clusterDoc struct {
	GOMAXPROCS int                        `json:"gomaxprocs"`
	NumCPU     int                        `json:"num_cpu"`
	Incast     *experiments.ClusterReport `json:"incast"`
	Ring       *experiments.ClusterReport `json:"ring"`
}

// runCluster executes the sharded-engine benchmark pair: the 64-host
// incast and the ring halo exchange, each run twice with its digest
// byte-compared across the two runs. Exit status is nonzero if the
// digests diverge.
func runCluster(opts clusterOptions, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "geniebench:", err)
		return 1
	}
	incast, err := experiments.RunIncast(experiments.ClusterBenchConfig{
		Hosts:    opts.hosts,
		Rounds:   opts.rounds,
		MsgBytes: opts.msgBytes,
	})
	if err != nil {
		return fail(err)
	}
	printClusterReport(stdout, incast)

	ring, err := experiments.RunRing(experiments.ClusterBenchConfig{
		Rounds: opts.rounds * 4,
	})
	if err != nil {
		return fail(err)
	}
	printClusterReport(stdout, ring)

	if opts.jsonPath != "" {
		doc := clusterDoc{
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
			Incast:     incast,
			Ring:       ring,
		}
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(opts.jsonPath, append(buf, '\n'), 0o644); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "geniebench: wrote %s\n", opts.jsonPath)
	}

	code := 0
	for _, rep := range []*experiments.ClusterReport{incast, ring} {
		if !rep.Deterministic {
			fmt.Fprintf(stderr, "geniebench: FAIL: %s digests diverge across runs\n", rep.Mode)
			code = 1
		}
	}
	return code
}

// printClusterReport renders one workload's runs: the per-run digest
// lines are byte-stable; the closing verdict line carries the
// environment.
func printClusterReport(stdout io.Writer, rep *experiments.ClusterReport) {
	fmt.Fprintf(stdout, "cluster %s: %d hosts, %d rounds, %d-byte messages\n",
		rep.Mode, rep.Hosts, rep.Rounds, rep.MsgBytes)
	for i, r := range rep.Runs {
		fmt.Fprintf(stdout, "cluster %s: run=%d digest=%s deliveries=%d final=%.3fus\n",
			rep.Mode, i+1, r.Digest, r.Deliveries, r.FinalTimeUS)
	}
	verdict := "bit-identical across runs"
	if !rep.Deterministic {
		verdict = "DIGESTS DIVERGE"
	}
	fmt.Fprintf(stdout, "cluster %s: %s (GOMAXPROCS=%d, NumCPU=%d)\n",
		rep.Mode, verdict, rep.GOMAXPROCS, rep.NumCPU)
}
