package main

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The benchmark runs on shared hosts whose speed follows the
// neighbours' load: the same pass runs up to 2x slower for minutes at a
// time, through stolen time and through contention for the shared
// cores, caches and memory. Host times taken minutes apart then differ
// by more than any change a benchmark should show.
//
// speedProbe is a fixed reference workload outside the program that
// slows down with the host: standard-library Go code (JSON round trip,
// DEFLATE, sort, map) on fixed inputs, run on every P at once, as the
// measured passes use every P. The run times it before every pass and
// scales every host time of the pass by speedNominalUS over the
// probe's time around it, so host times read at one reference host
// speed.
//
// The probe runs in a child process of its own (this binary, started
// with speedProbeEnv set), so that only the host can move it, never the
// program: in the benchmark's own process, the same probe read up to 2x
// slower right after a pass than after the next set-up had cleared what
// the pass left behind.
type speedProbe struct {
	recs    []speedRec
	workers int
}

// speedProbeEnv, set to 1, makes the binary serve probe timings.
const speedProbeEnv = "PERFBENCH_SPEED_PROBE"

// speedRec is one record of the probe's input.
type speedRec struct {
	Name  string
	ID    int
	Tags  []string
	Score float64
	Sub   map[string]int
}

const (
	speedRecords = 200 // records per worker and timing
	speedReps    = 3   // timings per probe time
	// speedNominalUS is the probe's time at the reference speed: its
	// typical time with two workers on a shared 2-vCPU x86-64 cloud host.
	speedNominalUS = 3500.0
)

// newSpeedProbe builds the probe's fixed input for the given number of
// concurrent workers.
func newSpeedProbe(workers int) *speedProbe {
	r := newRNG(0x5eed)
	recs := make([]speedRec, speedRecords)
	for i := range recs {
		recs[i] = speedRec{
			Name:  "rec" + strconv.Itoa(r.intn(100000)),
			ID:    r.intn(1 << 30),
			Tags:  []string{"a", "bb", strconv.Itoa(i)},
			Score: float64(r.intn(1000)) / 7,
			Sub:   map[string]int{"x": i, "y": r.intn(9)},
		}
	}
	return &speedProbe{recs: recs, workers: workers}
}

// kernel is one worker's share of a timing: it round-trips the records
// through JSON, compresses the encoding, and sorts and counts the
// decoded names. It returns a checksum of the results.
func (p *speedProbe) kernel() (int, error) {
	enc, err := json.Marshal(p.recs)
	if err != nil {
		return 0, err
	}
	var back []speedRec
	if err := json.Unmarshal(enc, &back); err != nil {
		return 0, err
	}
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, 5)
	if err != nil {
		return 0, err
	}
	if _, err := w.Write(enc); err != nil {
		return 0, err
	}
	if err := w.Close(); err != nil {
		return 0, err
	}
	names := make([]string, 0, len(back))
	ids := make(map[string]int, len(back))
	for _, rec := range back {
		names = append(names, rec.Name)
		ids[rec.Name] += rec.ID
	}
	sort.Strings(names)
	return buf.Len() + len(names) + len(ids), nil
}

// speedSink keeps the kernel's results live.
var speedSink int

// measure returns the µs the workers take to run one kernel each.
func (p *speedProbe) measure() (float64, error) {
	sums := make([]int, p.workers)
	errs := make([]error, p.workers)
	t := time.Now()
	var wg sync.WaitGroup
	for g := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[g], errs[g] = p.kernel()
		}()
	}
	wg.Wait()
	us := float64(time.Since(t).Nanoseconds()) / 1e3
	for g, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("speed probe: %w", err)
		}
		speedSink += sums[g]
	}
	return us, nil
}

// serveSpeedProbe answers every line read from in with one probe time
// in µs until in ends. A probe time is the median of speedReps timings
// after one untimed warm-up, which wakes the idle child.
func serveSpeedProbe(in io.Reader, out io.Writer) error {
	p := newSpeedProbe(runtime.GOMAXPROCS(0))
	sc := bufio.NewScanner(in)
	ts := make([]float64, speedReps+1)
	for sc.Scan() {
		runtime.GC()
		for i := range ts {
			us, err := p.measure()
			if err != nil {
				return err
			}
			ts[i] = us
		}
		if _, err := fmt.Fprintf(out, "%g\n", median(ts[1:])); err != nil {
			return err
		}
	}
	return sc.Err()
}

// serveIfSpeedProbe serves probe timings on standard input and output
// and exits, when the process was started as a probe child.
func serveIfSpeedProbe() {
	if os.Getenv(speedProbeEnv) != "1" {
		return
	}
	if err := serveSpeedProbe(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// speedChild is the parent's end of a probe child process.
type speedChild struct {
	cmd     *exec.Cmd
	in      io.WriteCloser
	out     *bufio.Reader
	stopped bool
}

// startSpeedProbe starts the probe child.
func startSpeedProbe() (*speedChild, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("speed probe: %w", err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), speedProbeEnv+"=1")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("speed probe: %w", err)
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("speed probe: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("speed probe: %w", err)
	}
	return &speedChild{cmd: cmd, in: in, out: bufio.NewReader(out)}, nil
}

// measure asks the child for one probe time in µs.
func (c *speedChild) measure() (float64, error) {
	if _, err := io.WriteString(c.in, "\n"); err != nil {
		return 0, fmt.Errorf("speed probe: %w", err)
	}
	line, err := c.out.ReadString('\n')
	if err != nil {
		return 0, fmt.Errorf("speed probe: %w", err)
	}
	us, err := strconv.ParseFloat(strings.TrimSpace(line), 64)
	if err != nil {
		return 0, fmt.Errorf("speed probe: %w", err)
	}
	return us, nil
}

// stop ends the child and waits for it to exit; later calls do nothing.
func (c *speedChild) stop() error {
	if c.stopped {
		return nil
	}
	c.stopped = true
	c.in.Close()
	if err := c.cmd.Wait(); err != nil {
		return fmt.Errorf("speed probe: %w", err)
	}
	return nil
}

// speedReport records the speed-probe times a run's host times were
// scaled by.
type speedReport struct {
	NominalUS float64   `json:"nominal_us"`
	MedianUS  float64   `json:"median_us"`
	PerPassUS []float64 `json:"per_pass_us,omitempty"`
}
