// Command perfbench is the repository benchmark. One invocation runs one
// workload as a closed loop with a single client:
//
//	extract-clean  clean core.RunCtx extractions of the six Table I chips
//	serve-faulted  fault-injected jobs through an in-process serve.Server
//	               over HTTP, each followed by cache-hit resubmissions
//	sa-analog      SPICE activations and offset-tolerance bisections of
//	               each chip's sense amplifier
//
// Every operation's output is checked against data the pipeline does not
// produce (Table I, the generator's ground truth, the fault injector's
// report, the circuit schedule). With -trace 0 the run is timed and
// prints the end-to-end metrics; with -trace 1 it runs the workload's
// inputs once more with in-memory spans around each layer's public
// functions and prints the per-layer metrics. The last line of standard
// output is the result object. A failed operation is listed with its
// error and does not stop the run; the exit status is non-zero if an
// operation failed other than by its known fault.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload extract-clean --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/chips"
)

// op is one unit of timed work. run performs it, checks its output and
// returns the latency the workload samples (the whole op, or for
// serve-faulted the fresh job's submit→done). knownFault is set on an op
// that fails on every run because of a known fault of the program; it
// reports whether an error is that fault.
type op struct {
	name       string
	run        func() (time.Duration, error)
	knownFault func(error) bool
}

// outcome is the result of running o with the given latency and error.
func (o op) outcome(lat time.Duration, err error) opResult {
	return opResult{name: o.name, latency: lat, err: err,
		known: err != nil && o.knownFault != nil && o.knownFault(err)}
}

// workload is one benchmark workload. warmUp runs after the environment
// is built and before timing starts; round returns the ops of round r,
// the same ops in every round up to order.
type workload interface {
	warmUp() error
	round(r int) []op
	// extra returns workload-specific end-to-end figures computed after
	// the timed loop from the successful ops' latencies in seconds
	// (printed on the detail line, not in the result).
	extra(samples []float64) map[string]float64
	// traced runs the traced invocation and returns the per-layer
	// metrics and the ops it ran.
	traced(tr *tracer) (map[string]float64, []opResult, error)
	close() error
}

// opResult is the outcome of one op.
type opResult struct {
	name    string
	latency time.Duration
	cpu     time.Duration // process CPU time (user+system) spent in the op
	peakMB  float64       // highest resident set while the op ran
	err     error
	known   bool // err is the op's known fault
}

// metric is one printed metric.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloadNames = []string{"extract-clean", "serve-faulted", "sa-analog"}

// benchmarkFile, relative to the repository root, lists the per-layer
// metrics the traced run prints.
const benchmarkFile = "BENCHMARK.json"

// outDir, relative to the repository root the benchmark runs from, holds
// the run's scratch directory (removed at exit) and the traced run's
// spans.
const outDir = ".bench_build"

func main() {
	processStart := time.Now()
	name := flag.String("workload", "", "workload: extract-clean, serve-faulted or sa-analog")
	seed := flag.Int64("seed", 1, "input seed: chip order per round and serve fault seeds")
	seconds := flag.Int("seconds", 10, "timed length; the run always completes whole rounds")
	trace := flag.Int("trace", 0, "1 runs the traced invocation and prints per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatalf("perfbench: -seconds must be >= 1 and -trace 0 or 1")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatalf("perfbench: %v", err)
	}
	scratch, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		fatalf("perfbench: %v", err)
	}
	code := run(processStart, *name, *seed, *seconds, *trace == 1, scratch)
	if err := os.RemoveAll(scratch); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: remove %s: %v\n", scratch, err)
	}
	os.Exit(code)
}

func run(processStart time.Time, name string, seed int64, seconds int, traced bool, scratch string) int {
	host := hostInfo()
	hb, _ := json.Marshal(host)
	fmt.Printf("# host %s\n", hb)
	w, err := newWorkload(name, seed, scratch)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	defer func() {
		if err := w.close(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: close: %v\n", err)
		}
	}()
	if traced {
		metrics, err := perLayerMetrics(benchmarkFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 2
		}
		tr := newTracer()
		layers, ops, err := w.traced(tr)
		path := filepath.Join(outDir, fmt.Sprintf("trace-%s-%d.json", name, seed))
		if werr := tr.writeFile(path); werr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: write trace: %v\n", werr)
		} else {
			fmt.Printf("# spans written to %s\n", path)
		}
		res, unexpected := summarize(name, seed, ops, 0)
		if err != nil {
			fmt.Printf("# FAIL traced run: %v\n", err)
			res.Attempted++
			res.Failed++
			unexpected++
			res.Correct = res.Correct && !isCheckError(err)
		}
		for _, m := range metrics {
			res.Metrics[m.Name] = metric{Value: layers[m.Name], Unit: m.Unit}
		}
		printResult(res)
		return exitCode(unexpected)
	}

	setups, err := setUp(w, processStart, name, seed, scratch)
	if err != nil {
		fmt.Printf("# FAIL warm-up: %v\n", err)
		printResult(result{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]metric{}})
		return 1
	}

	results, wall := timedLoop(w, time.Duration(seconds)*time.Second)
	res, unexpected := summarize(name, seed, results, wall)
	var samples, peaks []float64
	for _, r := range results {
		if r.err == nil {
			samples = append(samples, r.latency.Seconds())
			peaks = append(peaks, r.peakMB)
		}
	}
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["peak_rss_mb"] = metric{median(peaks), "MB"}
	res.Metrics["ops_per_min"] = metric{float64(len(samples)) / wall.Minutes(), "ops/min"}
	if len(samples) > 0 {
		res.Metrics["op_p50_s"] = metric{median(samples), "s"}
	}
	detail := w.extra(samples)
	detail["ops"] = float64(len(samples))
	detail["vmhwm_mb"] = peakRSSMB()
	db, _ := json.Marshal(detail)
	fmt.Printf("# detail %s\n", db)
	printResult(res)
	return exitCode(unexpected)
}

// setupRuns is how many times a run sets its workload up; setup_s is the
// median. sa-analog's set-up takes a few tenths of a second, so a single
// one moves with the host's speed from one run to the next; an image
// workload's set-up holds a warm-up op of several seconds, which a repeat
// would add to every run.
func setupRuns(name string) int {
	if name == "sa-analog" {
		return 5
	}
	return 1
}

// setUp warms w up and returns the set-up times in seconds: the first
// from process start, then each further set-up of a workload of its own
// (built and warmed up, then closed), up to setupRuns(name).
func setUp(w workload, processStart time.Time, name string, seed int64, scratch string) ([]float64, error) {
	if err := w.warmUp(); err != nil {
		return nil, err
	}
	setups := []float64{time.Since(processStart).Seconds()}
	for len(setups) < setupRuns(name) {
		t := time.Now()
		again, err := newWorkload(name, seed, scratch)
		if err != nil {
			return nil, err
		}
		err = again.warmUp()
		if cerr := again.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	return setups, nil
}

// exitCode is the process's exit status: 1 if an op failed other than by
// its known fault.
func exitCode(unexpected int) int {
	if unexpected > 0 {
		return 1
	}
	return 0
}

// summarize prints every op and the failure accounting, and returns the
// result without metrics and the number of ops that failed other than by
// their known fault. wall is the timed wall time, 0 for a traced run. A
// known fault counts as failed but leaves correct true, which speaks of
// the ops that did not fail.
func summarize(name string, seed int64, results []opResult, wall time.Duration) (result, int) {
	res := result{Correct: true, Attempted: len(results), Metrics: map[string]metric{}}
	unexpected := 0
	for _, r := range results {
		switch {
		case r.known:
			res.Failed++
			fmt.Printf("# FAIL (known fault) %s: %v\n", r.name, r.err)
		case r.err != nil:
			res.Failed++
			unexpected++
			if isCheckError(r.err) {
				res.Correct = false
			}
			fmt.Printf("# FAIL %s: %v\n", r.name, r.err)
		case wall > 0:
			fmt.Printf("# op %s %.4fs ok (cpu %.2fs, rss peak %.0f MB)\n", r.name, r.latency.Seconds(), r.cpu.Seconds(), r.peakMB)
		default:
			fmt.Printf("# op %s %.4fs ok\n", r.name, r.latency.Seconds())
		}
	}
	fmt.Printf("# workload %s seed %d: attempted %d failed %d (%d by a known fault)",
		name, seed, res.Attempted, res.Failed, res.Failed-unexpected)
	if wall > 0 {
		fmt.Printf(" wall %.3fs", wall.Seconds())
	}
	fmt.Println()
	return res, unexpected
}

// timedLoop runs whole rounds until the time budget is spent (at least
// one round) or the workload has no further round, so every run attempts
// the same ops in the same proportion.
// Before each op, outside its latency, the heap is collected and freed
// memory returned to the OS, so every op starts from the same heap and
// resident set: one op's garbage lands in neither the next op's time nor
// its memory peak.
func timedLoop(w workload, budget time.Duration) ([]opResult, time.Duration) {
	var out []opResult
	t0 := time.Now()
	for round := 0; round == 0 || time.Since(t0) < budget; round++ {
		ops := w.round(round)
		if len(ops) == 0 {
			break
		}
		for _, o := range ops {
			debug.FreeOSMemory()
			var lat time.Duration
			var err error
			c := cpuTime()
			peak := opPeakRSSMB(func() { lat, err = o.run() })
			res := o.outcome(lat, err)
			res.peakMB, res.cpu = peak, cpuTime()-c
			out = append(out, res)
		}
	}
	return out, time.Since(t0)
}

func newWorkload(name string, seed int64, scratch string) (workload, error) {
	switch name {
	case "extract-clean":
		return newExtractWorkload(seed), nil
	case "serve-faulted":
		return newServeWorkload(seed, scratch)
	case "sa-analog":
		return newAnalogWorkload(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

func printResult(r result) {
	b, err := json.Marshal(r)
	if err != nil {
		fatalf("perfbench: %v", err)
	}
	fmt.Println(string(b))
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the median of an even count is the mean of the middle
// two), or 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// median is the 0.5-quantile of xs.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

// workers is the reconstruction worker count: one per core.
func workers() int { return runtime.NumCPU() }

// deepestChip has the deepest slice stack (192 slices): the slowest op
// and the one that sets the memory peak of the image workloads.
const deepestChip = "B4"

// roundOrder returns the Table I chips other than skip in an order drawn
// from rng, with the deepest chip closing the round. The image workloads
// share one buffer pool across ops, and the pool keeps buffers of every
// slice size it has seen, so an op's memory peak includes the buffers of
// the chips that ran before it; closing the round with the deepest chip
// keeps its buffers out of every other op's peak and keeps its own peak
// from moving with the drawn order.
func roundOrder(rng *rand.Rand, skip string) []*chips.Chip {
	var rest []*chips.Chip
	for _, c := range chips.All() {
		if c.ID != deepestChip && c.ID != skip {
			rest = append(rest, c)
		}
	}
	rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	return append(rest, chips.ByID(deepestChip))
}
