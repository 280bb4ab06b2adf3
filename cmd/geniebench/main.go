// Command geniebench regenerates the paper's evaluation and runs the
// repo's benchmark modes, one subcommand per mode:
//
//	geniebench [sweep]      # figures, tables, ablations (the default)
//	geniebench bigsweep     # million-point analytic sweep + seeded sim spot checks
//	geniebench cluster      # sharded multi-host benchmarks: incast and ring determinism
//	geniebench chaos        # fault-injection recovery matrix
//	geniebench workload     # closed-loop backpressure study: semantics x depth x load
//	geniebench storage      # storage-path study: semantics x I/O size over block device + page cache
//
// Every subcommand takes its own flags (see `geniebench <cmd> -h`); all
// of them share -json <path> (machine-readable report) and -parallel N
// (harness worker goroutines). The historical spellings `-bigsweep`,
// `-cluster`, and `-faults <spec>` still work as aliases for their
// subcommands and print a deprecation note on stderr.
//
// # sweep
//
// Regenerates every table and figure of the paper's evaluation next to
// the published values. -figures/-tables/-ablations restrict the
// sections; -csv writes figure CSVs; -trace captures one traced
// exemplar per figure as Chrome trace_event JSON. Measurement points
// fan out across -parallel workers (any count produces byte-identical
// output), identical points are memoized, and testbeds are recycled;
// -nocache and -norecycle restore the cold path. -dataplane selects
// symbolic or materialized payload bytes — output is identical either
// way.
//
// # bigsweep
//
// Evaluates the full cross-product of platforms x networks x schemes x
// semantics x offsets x lengths — about a million points at the default
// -stride 47 — through the closed-form analytic evaluator, while a
// seeded pseudo-random subset (-spotcheck, default one in 4096) re-runs
// through the discrete-event simulator as oracle. Exit status is
// nonzero if the worst relative error exceeds -errbound, or when
// -minspeedup is set and the analytic path is not at least that many
// times faster per point. The same -seed always selects the same
// spot-check set.
//
// # cluster
//
// Exercises the sharded engine: a -hosts incast and a bytes-plane ring
// halo exchange each run twice on freshly built clusters, and the full
// delivery digest must be byte-identical across the two runs. Exit
// status is nonzero on any digest divergence.
//
// # chaos
//
// Runs reliable transfers across every buffering scheme and semantics
// family under the seeded fault script of -spec and prints the recovery
// report: injected drops, duplicates, reorderings, corruptions,
// allocation failures, and pool denials must all be recovered and every
// testbed must conserve its resources. Exit status is nonzero if any
// point violated recovery or conservation.
//
// # workload
//
// Drives the closed-loop backpressure study (see internal/workload):
// pipelined clients against a server (-scenario fileserver), a
// fixed-bitrate stream through a bounded queue (stream), or a
// scatter-gather fan-out (fanout), sweeping buffering semantics x queue
// depth x offered load and locating each semantics' rule-3 transition —
// the smallest depth whose heaviest-load point is no longer bimodal.
// The sweep runs at every -workers count and the digests must match
// bit for bit; exit status is nonzero on divergence, or when
// -requiretransition names a semantics whose transition is not finite.
// Independent grid points fan across -pointworkers goroutines (default:
// the shared -parallel setting); -workers only sets the verification
// runs, as each point's cluster advances serially. Every point reuses
// a Reset cluster from the recycler and the workload-point memo serves
// repeat worker counts without resimulating (-norecycle and -nomemo
// restore the cold path — output is byte-identical either way).
// -minspeedup additionally times the serial cold regime and gates on
// the optimized speedup over it.
//
// # storage
//
// Sweeps buffering semantics x I/O size x page-cache capacity x dirty
// threshold over the simulated storage data path — a seek/transfer-cost
// block device under a page cache with read-ahead and threshold
// writeback — and reports per-op CPU and latency next to hit ratios and
// writeback-burst accounting, plus the copy-vs-move break-even on the
// read path per cache configuration. The sweep runs at every -workers
// count (point fan-out) and the digests must match bit for bit; exit
// status is nonzero on divergence, or when -requirecrossover is set and
// any configuration fails to locate a finite crossover.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// subcommands lists the dispatch table in help order.
var subcommands = []struct {
	name string
	desc string
	cmd  func(args []string, stdout, stderr io.Writer) int
}{
	{"sweep", "regenerate the paper's figures, tables, and ablations (default)", runSweepCmd},
	{"bigsweep", "million-point analytic sweep with seeded simulated spot checks", runBigSweepCmd},
	{"cluster", "sharded multi-host benchmarks: incast and ring determinism", runClusterCmd},
	{"chaos", "fault-injection recovery matrix", runChaosCmd},
	{"workload", "closed-loop backpressure study: semantics x depth x load", runWorkloadCmd},
	{"storage", "storage-path study: semantics x I/O size over block device + page cache", runStorageCmd},
}

// run is the testable entry point: flag or usage errors return 2,
// runtime failures 1, success 0.
func run(args []string, stdout, stderr io.Writer) int {
	name, rest, note := dispatch(args)
	if note != "" {
		fmt.Fprintln(stderr, note)
	}
	for _, sc := range subcommands {
		if sc.name == name {
			return sc.cmd(rest, stdout, stderr)
		}
	}
	fmt.Fprintf(stderr, "geniebench: unknown subcommand %q\n", name)
	printUsage(stderr)
	return 2
}

// dispatch resolves the subcommand: an explicit first argument wins;
// otherwise the legacy mode flags (-bigsweep, -cluster, -faults) are
// recognized as aliases with a deprecation note, and everything else
// falls through to the default sweep.
func dispatch(args []string) (name string, rest []string, note string) {
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		return args[0], args[1:], ""
	}
	for i, a := range args {
		flagName := strings.TrimLeft(a, "-")
		switch {
		case flagName == "bigsweep" || flagName == "cluster":
			// Boolean mode flag: drop it, keep every other flag — the
			// subcommand's FlagSet still accepts the historical names.
			rest = append(append([]string{}, args[:i]...), args[i+1:]...)
			return flagName, rest,
				fmt.Sprintf("geniebench: note: -%s is deprecated; use `geniebench %s`", flagName, flagName)
		case flagName == "faults" || strings.HasPrefix(flagName, "faults="):
			// Value-carrying mode flag: keep it, the chaos FlagSet
			// registers -faults as an alias of -spec.
			return "chaos", args,
				"geniebench: note: -faults is deprecated; use `geniebench chaos -spec <spec>`"
		}
	}
	return "sweep", args, ""
}

func printUsage(w io.Writer) {
	fmt.Fprintf(w, "Usage: geniebench [subcommand] [flags]\n\nSubcommands:\n")
	for _, sc := range subcommands {
		fmt.Fprintf(w, "  %-9s %s\n", sc.name, sc.desc)
	}
	fmt.Fprintf(w, "\nRun `geniebench <subcommand> -h` for that subcommand's flags.\n")
}

// usageErrf reports a flag-validation error with the subcommand's
// usage text; callers return its value (2) as the exit status.
func usageErrf(fs *flag.FlagSet, stderr io.Writer, format string, a ...any) int {
	fmt.Fprintf(stderr, "geniebench: "+format+"\n", a...)
	fs.Usage()
	return 2
}

func failf(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "geniebench:", err)
	return 1
}
