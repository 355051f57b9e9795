// Command perfbench is the repository benchmark. One process runs one
// named workload against the simulator's exported entry points, from a
// seed, for a fixed host-time window, checks every output it produces,
// and prints one JSON result line:
//
//	perfbench --workload paper --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 is a separate
// traced run that reports the per-layer metrics (spans around every
// call into a layer, a CPU profile bucketed by package, and a counter
// snapshot per step). README.md maps every metric to its layer and
// workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/npu"
)

// stderrLog receives diagnostics that are not metrics.
var stderrLog io.Writer = os.Stderr

// Set-up runs at least minSetups times, and more, up to maxSetups,
// until setupBudget of set-up time has passed: a fast set-up needs
// the extra runs for its median to get past the process's first,
// slower set-ups, and single set-ups of a few ms vary by up to 2x
// within a process. setup_s is the median; the last instance is the
// one measured.
const (
	minSetups   = 5
	maxSetups   = 200
	setupBudget = time.Second
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet is a named metric set.
type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the final stdout line.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// tally counts gated operations over the whole process. A failed gate
// is a failed operation; any failure makes the command exit non-zero.
type tally struct {
	attempted, failed int
	firstErr          string
}

func (t *tally) ok(n int) { t.attempted += n }

func (t *tally) fail(n int, format string, args ...any) {
	t.attempted += n
	t.failed += n
	if t.firstErr == "" {
		t.firstErr = fmt.Sprintf(format, args...)
	}
}

// bench is one workload (traffic mix) after set-up.
type bench interface {
	// step runs the next unit of work: one experiment cell, one serving
	// or scheduler episode, or one model. Gate failures go to the
	// tally; a returned error aborts the run.
	step(t *tracer) error
	// boundary reports whether the steps so far end a whole pass over
	// the workload's distinct inputs; a measuring window stops only
	// there, so every window weighs the inputs alike.
	boundary() bool
	// reset clears the per-window accumulators.
	reset()
	// opsDone and stepsDone count the ops (cells, terminal requests,
	// tokens or models) and steps of the last window.
	opsDone() int
	stepsDone() int
	// summary reports the last window's workload-level results (the
	// simulated outcomes beside the paper's figures, simulator speed)
	// under their per-layer names; layers reports its traced layer
	// metrics. Both leave out layers the workload does not exercise.
	summary(elapsed time.Duration) metricSet
	layers(elapsed time.Duration, t *tracer) metricSet
	tally() *tally
	close()
}

// workloads maps each workload name to its set-up function.
var workloads = map[string]func(seed int64, root string) (bench, error){
	"paper":  newPaper,
	"serve":  newServe,
	"decode": newDecode,
	"byom":   newBYOM,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process exit, so tests can drive it.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	stderrLog = stderr
	name := fs.String("workload", "", "workload: paper, serve, decode or byom")
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "host seconds to measure")
	traced := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	root := fs.String("root", ".", "repository root (for committed graph-IR models)")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for traced-run spans and profiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	open, ok := workloads[*name]
	if !ok || *traced < 0 || *traced > 1 || *seconds < 0 {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, trace %d)\n", *name, *traced)
		return 2
	}

	heap := startHeapSampler()
	w, setupS, err := setUp(open, *seed, *root)
	if err != nil {
		heap.stop()
		fmt.Fprintf(stderr, "perfbench: set-up: %v\n", err)
		return 1
	}
	defer w.close()

	res := metricSet{}
	window := time.Duration(*seconds * float64(time.Second))
	if *traced == 0 {
		elapsed, stepMs, err := measure(w, window, nil)
		if err != nil {
			heap.stop()
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		res.set("setup_s", setupS, "s")
		res.set("peak_heap_mb", float64(heap.stop())/1e6, "MB")
		res.set("ops_per_s", float64(w.opsDone())/elapsed.Seconds(), "1/s")
		res.set("step_p50_ms", median(stepMs), "ms")
		// The step tail is for reading only: across runs it spreads too
		// widely to bound (README.md, Noise).
		p, tailMs, n := tail(stepMs, len(stepMs))
		fmt.Fprintf(stderr, "perfbench: step p%g is %.4f ms over %d steps\n", p, tailMs, n)
		summarize(stderr, *name+" summary (reported by the traced run):", w.summary(elapsed))
		if err := conform(res, endToEndMetrics); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	} else {
		heap.stop()
		if err := tracedRun(w, *name, *seed, window, *out, res); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}

	tl := w.tally()
	r := result{Correct: tl.failed == 0, Attempted: tl.attempted, Failed: tl.failed, Metrics: res}
	if r.Attempted == 0 {
		fmt.Fprintln(stderr, "perfbench: no operation attempted")
		return 1
	}
	summarize(stderr, fmt.Sprintf("perfbench %s: %d attempted, %d failed", *name, r.Attempted, r.Failed), r.Metrics)
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if tl.failed > 0 {
		fmt.Fprintf(stderr, "perfbench: %d of %d operations failed; first: %s\n", tl.failed, tl.attempted, tl.firstErr)
		return 1
	}
	return 0
}

// setUp runs the workload's set-up repeatedly from cold process-global
// caches and pools, keeps the last instance, and returns the median
// set-up time in seconds.
func setUp(open func(int64, string) (bench, error), seed int64, root string) (bench, float64, error) {
	var times []float64
	var total time.Duration
	var w bench
	for len(times) < minSetups || (total < setupBudget && len(times) < maxSetups) {
		if w != nil {
			w.close()
		}
		coldStart()
		t0 := time.Now()
		var err error
		if w, err = open(seed, root); err != nil {
			return nil, 0, err
		}
		d := time.Since(t0)
		total += d
		times = append(times, d.Seconds())
	}
	return w, median(times), nil
}

// coldStart drops the process-global compile cache and SoC pools, so
// every set-up starts from what a fresh process sees.
func coldStart() {
	npu.ResetProgCache()
	experiments.SetPooling(false)
	experiments.SetPooling(true)
	runtime.GC()
}

// measure runs steps until the window has passed and the steps end a
// whole pass, and returns the elapsed host time and each step's host
// time in ms.
func measure(w bench, window time.Duration, t *tracer) (time.Duration, []float64, error) {
	w.reset()
	var stepMs []float64
	t0 := time.Now()
	for {
		s0 := time.Now()
		if err := w.step(t); err != nil {
			return 0, nil, err
		}
		stepMs = append(stepMs, float64(time.Since(s0))/1e6)
		if time.Since(t0) >= window && w.boundary() {
			return time.Since(t0), stepMs, nil
		}
	}
}

// tracedRun measures an untraced half window, which gives the
// workload's summary, then a traced half window with spans, a CPU
// profile and per-step counters, and fills res with every per-layer
// metric. Spans, counters and the profile are written under out when
// the run ends.
func tracedRun(w bench, name string, seed int64, window time.Duration, out string, res metricSet) error {
	plain, _, err := measure(w, window/2, nil)
	if err != nil {
		return err
	}
	plainRate := float64(w.stepsDone()) / plain.Seconds()
	for k, v := range w.summary(plain) {
		res[k] = v
	}

	t := newTracer()
	rt0 := readRuntime()
	if err := t.startProfile(); err != nil {
		return err
	}
	elapsed, _, err := measure(w, window/2, t)
	prof, perr := t.stopProfile()
	if err != nil {
		return err
	}
	if perr != nil {
		return perr
	}
	rt1 := readRuntime()
	steps := float64(w.stepsDone())
	for k, v := range w.layers(elapsed, t) {
		res[k] = v
	}
	for _, layer := range profiledLayers() {
		res.set(layer+".self_ms", prof.self[layer]/1e6/steps, "ms/op")
	}
	res.set("monitor.cum_ms", prof.cum["monitor"]/1e6/steps, "ms/op")
	res.set("go.alloc_mb_per_op", (rt1.allocBytes-rt0.allocBytes)/1e6/steps, "MB/op")
	res.set("go.gc_cpu_pct", 100*ratio(rt1.gcCPU-rt0.gcCPU, (rt1.totalCPU-rt1.idleCPU)-(rt0.totalCPU-rt0.idleCPU)), "%")
	tracedRate := steps / elapsed.Seconds()
	res.set("bench.trace_overhead_pct", 100*(plainRate-tracedRate)/plainRate, "%")
	fillZero(res, perLayerMetrics)
	if err := conform(res, perLayerMetrics); err != nil {
		return err
	}
	return t.write(out, fmt.Sprintf("%s-seed%d", name, seed), prof.raw)
}

// summarize prints a heading and the metrics, sorted by name, to
// stderr.
func summarize(w io.Writer, heading string, m metricSet) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintln(w, heading)
	for _, k := range names {
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}

// heapSampler tracks the peak of live-plus-unswept heap bytes.
type heapSampler struct {
	done chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			h.sample()
			select {
			case <-h.done:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	if v := s[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}

// stop ends sampling, waits for the sampler to exit, and returns the
// peak in bytes.
func (h *heapSampler) stop() uint64 {
	close(h.done)
	h.wg.Wait()
	h.sample()
	return h.peak
}

// runtimeStats are the Go runtime counters the go.* metrics use.
type runtimeStats struct {
	allocBytes, gcCPU, totalCPU, idleCPU float64
}

func readRuntime() runtimeStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeStats{
		allocBytes: float64(s[0].Value.Uint64()),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
		idleCPU:    s[3].Value.Float64(),
	}
}
