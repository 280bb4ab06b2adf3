// Command genietrace traces one datagram transfer through the
// structured event subsystem: it prints every emitted event — data
// passing charges with their stage and latency, VM faults and region
// transitions, adapter and link activity — then the critical-path
// breakdown whose spans sum to the end-to-end latency (the
// cycle-counter instrumentation of the paper's Section 8, as a tool).
//
// Usage:
//
//	genietrace -sem "emulated copy" -bytes 61440 -scheme early
//	genietrace -sem copy -bytes 2048 -scheme pooled -appoff 1000
//	genietrace -sem move -bytes 16384 -scheme pooled -chrome out.json
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/trace"
)

func main() {
	semName := flag.String("sem", "emulated copy", "buffering semantics")
	length := flag.Int("bytes", 61440, "datagram length in bytes")
	scheme := flag.String("scheme", "early", "input buffering: early, pooled, outboard")
	devOff := flag.Int("devoff", 0, "device payload placement offset")
	appOff := flag.Int("appoff", 0, "application buffer page offset")
	chromePath := flag.String("chrome", "", "also write the trace as Chrome trace_event JSON to this path")
	flag.Parse()

	sem, err := core.ParseSemantics(*semName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "genietrace:", err)
		os.Exit(2)
	}
	var buffering netsim.InputBuffering
	switch *scheme {
	case "early":
		buffering = netsim.EarlyDemux
	case "pooled":
		buffering = netsim.Pooled
	case "outboard":
		buffering = netsim.OutboardBuffering
	default:
		fmt.Fprintf(os.Stderr, "genietrace: unknown scheme %q (early, pooled, outboard)\n", *scheme)
		os.Exit(2)
	}

	ring := trace.NewRing(1 << 16)
	var sink trace.Sink = ring
	var chrome *trace.ChromeExporter
	if *chromePath != "" {
		chrome = trace.NewChromeExporter()
		chrome.SetProcess(1, fmt.Sprintf("%v %dB %v", sem, *length, buffering))
		sink = trace.Multi(ring, chrome)
	}
	s := experiments.Setup{
		Scheme:    buffering,
		DevOff:    *devOff,
		AppOffset: *appOff,
		Tracer:    trace.New(sink),
	}
	m, err := experiments.Measure(s, sem, *length)
	if err != nil {
		fmt.Fprintln(os.Stderr, "genietrace:", err)
		os.Exit(1)
	}
	if ring.Dropped() > 0 {
		fmt.Fprintf(os.Stderr, "genietrace: ring overflowed, %d oldest events dropped\n", ring.Dropped())
	}
	events := ring.Events()
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })

	fmt.Printf("transfer: %v, %d bytes, %v buffering (%d events)\n\n",
		sem, *length, buffering, len(events))
	fmt.Printf("%10s %-6s %-4s %-10s %-40s %9s %12s\n",
		"at us", "host", "cat", "stage", "event", "bytes", "latency us")
	fmt.Println("-------------------------------------------------------------------------------------------------")
	var opTotal float64
	for _, ev := range events {
		switch ev.Phase {
		case trace.Begin, trace.End:
			// Operation boundaries are summarized below.
			continue
		}
		if stageSummary[ev.Name] {
			// Stage-level spans aggregate the charges already listed;
			// they appear in the critical path section instead.
			continue
		}
		lat := "-"
		if ev.Phase == trace.Complete {
			lat = fmt.Sprintf("%.2f", ev.Dur.Micros())
			if ev.Cat == trace.CatOp {
				opTotal += ev.Dur.Micros()
			}
		}
		fmt.Printf("%10.1f %-6s %-4s %-10s %-40s %9d %12s\n",
			float64(ev.At), ev.Host, ev.Cat, ev.Stage, ev.Name, ev.Bytes, lat)
	}
	fmt.Println("-------------------------------------------------------------------------------------------------")

	// The critical path: the spans that serialize end to end. Their
	// durations tile the interval between output start and input
	// completion exactly.
	critical := []string{"output.prepare", "net.tx", "net.deliver", "input.dispose"}
	var pathTotal float64
	fmt.Println("\ncritical path:")
	for _, name := range critical {
		for _, ev := range events {
			if ev.Phase == trace.Complete && ev.Name == name {
				fmt.Printf("  %-16s %12.2f us  (%s)\n", name, ev.Dur.Micros(), ev.Host)
				pathTotal += ev.Dur.Micros()
				break
			}
		}
	}
	fmt.Printf("  %-16s %12.2f us\n", "sum", pathTotal)

	fmt.Printf("\ntotal data passing CPU time          %12.2f us (both hosts, all stages)\n", opTotal)
	fmt.Printf("end-to-end latency                   %12.2f us\n", m.LatencyUS)
	fmt.Printf("equivalent throughput                %12.2f Mbps\n", m.ThroughputMbps())
	fmt.Printf("receiver CPU busy                    %12.2f us (%.1f%% utilization)\n",
		m.RxCPUUS, m.Utilization()*100)
	fmt.Printf("sender CPU busy                      %12.2f us\n", m.TxCPUUS)

	if chrome != nil {
		f, err := os.Create(*chromePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "genietrace:", err)
			os.Exit(1)
		}
		if _, err := chrome.WriteTo(f); err != nil {
			fmt.Fprintln(os.Stderr, "genietrace:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "genietrace:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "genietrace: wrote %s (load in chrome://tracing or Perfetto)\n", *chromePath)
	}
}

// stageSummary marks the per-stage aggregate spans, which duplicate the
// individual charges in the table and belong to the critical path view.
var stageSummary = map[string]bool{
	"output.prepare": true,
	"output.dispose": true,
	"input.dispose":  true,
}
