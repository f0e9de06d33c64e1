// Command perfbench is the repository benchmark. It generates one
// workload's inputs from a seed, drives the public training and serving
// APIs on them for a fixed time, checks the outputs, and prints every
// metric by name and unit. The last line of its output is one JSON
// record:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}
//
// With -trace 0 the record holds the end-to-end metrics of
// BENCHMARK.json, measured untraced; with -trace 1 it holds the
// per-layer metrics, measured by timing calls into each layer on the
// workload's own inputs, and the run's spans are written under
// .bench_work/spans. It exits non-zero when a correctness check fails.
//
// Run it from the repository root through perfbench/run.sh, e.g.
//
//	bash perfbench/run.sh --workload train-netflix --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workDir holds what a run writes: serving checkpoints while the run
// lasts, and the spans of traced runs.
const workDir = ".bench_work"

// trainWorkloads are the training workloads by name; serve-longtail is
// the third. Shapes and ranks follow the paper's netflix (compute bound,
// thousands of ratings per item token) and a longtail matrix
// (communication bound, a handful of ratings per token). The longtail
// shape is small enough (1.6K x 12K, k=16: 1.7 MB of factors) to stay
// in a core's own cache, so its rate does not follow what other
// programs on the host do to the shared cache; it makes up in epochs.
var trainWorkloads = map[string]trainWorkload{
	"train-netflix": {
		spec: netflixSpec(0.02), k: 100, epochs: 4,
		targetWork: 0.5, rmseBound: 0.1, maxFitRMSE: 0.8,
	},
	"train-longtail": {
		spec: longtailSpec(0.02), k: 16, epochs: 200,
		rmseBound: 0.02, maxFitRMSE: 0.6, singleWorker: true,
	},
}

// endToEnd and perLayer are the metric names of BENCHMARK.json, in its
// order; every run reports every name of its mode.
var endToEnd = []string{
	"setup_s", "peak_rss_mb", "throughput_per_s", "time_to_result_s",
	"latency_p50_ms",
}

var perLayer = []string{
	"sparse.build_s", "nomad.new_session_s",
	"core.rate_p10_per_s", "core.epoch_s.p50", "core.epoch_s.max", "core.unattributed_share",
	"vecmath.step_ns", "vecmath.share",
	"queue.ns_per_token", "queue.share",
	"cluster.bytes_per_update", "cluster.messages_per_update",
	"netlink.encode_ns_per_token", "netlink.decode_ns_per_token", "netlink.share",
	"metrics.rmse_eval_ms", "metrics.eval_share",
	"factor.load_s",
	"serve.build_index_s", "serve.topn_us.p50", "serve.topn_us.p95",
	"serve.scanned_per_query", "serve.prune_ratio",
	"serve.handler_us.p50", "serve.handler_us.p95", "serve.late_ms.p99",
	"env.calib_ms.start", "env.calib_ms.end",
	"trace.overhead_share", "trace.spans",
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench is one run of one workload.
type bench struct {
	workload string
	seed     uint64
	budget   time.Duration // measuring time
	trace    bool
	nproc    int
	tr       *tracer

	attempted, failed int
	incorrect         bool
	metrics           map[string]metricValue
}

// op counts one operation and reports whether it failed.
func (b *bench) op(err error) bool {
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.workload, err)
		return true
	}
	return false
}

// check counts one correctness check; a failed one makes the run
// incorrect.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.failed++
		b.incorrect = true
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", b.workload, fmt.Sprintf(format, args...))
	}
}

// info prints a human-readable line: the metrics of the issue that the
// record does not carry, and context for the ones it does.
func (b *bench) info(name, text string) {
	fmt.Printf("%-32s %s\n", name, text)
}

// e2e and layer set a record metric; the one of the other mode is only
// printed.
func (b *bench) e2e(name, unit string, v float64)   { b.set(false, name, unit, v) }
func (b *bench) layer(name, unit string, v float64) { b.set(true, name, unit, v) }

func (b *bench) set(layer bool, name, unit string, v float64) {
	fmt.Printf("%-32s %.6g %s\n", name, v, unit)
	if err := checkName(name); err != nil {
		b.check(false, "%v", err)
	}
	if layer == b.trace {
		b.metrics[name] = metricValue{Value: v, Unit: unit}
	}
}

// calibrate times a fixed single-thread loop: the host-noise probe. It
// follows a random cycle through a table about the size of the longtail
// working sets, so it slows down both when the core is shared and when
// the cache is. It is recorded, never used to scale other numbers.
func calibrate() float64 {
	start := time.Now()
	j := uint32(0)
	for i := 0; i < 1_000_000; i++ {
		j = calibTable[j]
	}
	calibSink = j
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

// calibTable is one random cycle over 4M entries (16 MB), built with
// Sattolo's algorithm from a fixed seed.
var calibTable = func() []uint32 {
	t := make([]uint32, 1<<22)
	for i := range t {
		t[i] = uint32(i)
	}
	r := rand.New(rand.NewPCG(1, 2))
	for i := len(t) - 1; i > 0; i-- {
		k := r.IntN(i)
		t[i], t[k] = t[k], t[i]
	}
	return t
}()

var calibSink uint32

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			var kb float64
			if _, err := fmt.Sscan(f[1], &kb); err != nil {
				return 0, fmt.Errorf("peak rss: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in /proc/self/status")
}

func main() {
	workload := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "measuring time per run")
	traceFlag := flag.Int("trace", 0, "1: record spans and report per-layer metrics")
	flag.Parse()
	// A run must end within three minutes; a hung one fails instead.
	time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded 170 s")
		os.Exit(3)
	})
	if err := run(*workload, *seed, *seconds, *traceFlag == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed uint64, seconds float64, trace bool) error {
	if _, ok := trainWorkloads[workload]; !ok && workload != "serve-longtail" {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	b := &bench{
		workload: workload,
		seed:     seed,
		budget:   time.Duration(seconds * float64(time.Second)),
		trace:    trace,
		nproc:    runtime.GOMAXPROCS(0),
		tr:       newTracer(trace, fmt.Sprintf("%s-seed%d", workload, seed)),
		metrics:  make(map[string]metricValue),
	}
	b.info("workload", fmt.Sprintf("%s seed=%d seconds=%g trace=%v nproc=%d", workload, seed, seconds, trace, b.nproc))
	calibStart := calibrate()

	var err error
	if w, ok := trainWorkloads[workload]; ok {
		err = b.runTrain(w)
	} else {
		err = b.runServe()
	}
	if err != nil {
		return err
	}

	rss, err := peakRSSMB()
	if b.op(err) {
		return err
	}
	b.e2e("peak_rss_mb", "MB", rss)
	b.layer("env.calib_ms.start", "ms", calibStart)
	b.layer("env.calib_ms.end", "ms", calibrate())
	if trace {
		path := filepath.Join(workDir, "spans", b.tr.run+".jsonl")
		self, err := b.tr.write(path)
		if b.op(err) {
			return err
		}
		b.layer("trace.spans", "count", float64(b.tr.count()))
		b.info("spans_file", path)
		printSelfTimes(self)
	}
	return b.emit()
}

func printSelfTimes(self map[string]time.Duration) {
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, n := range names {
		fmt.Printf("self_time %-40s %.6f s\n", n, self[n].Seconds())
	}
}

// emit prints the record and fails the run when a metric of the mode is
// missing or a check failed.
func (b *bench) emit() error {
	want := endToEnd
	if b.trace {
		want = perLayer
	}
	for _, name := range want {
		v, ok := b.metrics[name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			b.check(false, "metric %s was not measured", name)
			delete(b.metrics, name) // JSON cannot carry NaN or Inf
		}
	}
	b.info("error_ratio", fmt.Sprintf("%.6g (%d failed of %d attempted)", float64(b.failed)/float64(b.attempted), b.failed, b.attempted))
	rec := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{!b.incorrect, b.attempted, b.failed, b.metrics}
	out, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("record: %w", err)
	}
	fmt.Println(string(out))
	if b.incorrect {
		return fmt.Errorf("%s: a correctness check failed", b.workload)
	}
	return nil
}
