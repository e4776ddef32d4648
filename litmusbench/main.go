// Command litmusbench is the repository's benchmark: closed-loop load
// from two client goroutines against in-process litmus-serve nodes,
// driven through the public client and shard.Router, with every answer
// checked against an independent in-process computation or the golden
// fixture.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	litmusbench --workload serve-compute --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// runs an untraced phase, a traced phase and an in-process layer replay,
// prints the per-layer metrics and writes the spans to
// .bench_build/traces/. The last line of standard output is the JSON
// result; diagnostics go to standard error. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// Run shape.
const (
	clients   = 2   // closed-loop client goroutines
	setupReps = 5   // set-ups per run; setup_s is their median
	phaseA    = 0.3 // traced run: share of --seconds for the untraced phase
	phaseB    = 0.4 // ... for the traced served phase (the rest replays in-process)
	p99       = 0.99
	windows   = 15 // untraced run: throughput, CPU and allocation are medians over this many slices
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // repository root: testdata/ is read from here
	work     string // scratch directory for journals and traces
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: serve-compute, routed-hits or batch-changelog")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 15, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&o.root, "root", ".", "repository root")
	flag.StringVar(&o.work, "work", ".bench_build", "scratch directory (journals, traces)")
	flag.Parse()
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if o.seconds <= 0 {
		fatalf("--seconds must be positive")
	}
	res, err := run(context.Background(), o)
	if err != nil {
		fatalf("%v", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "litmusbench: "+format+"\n", args...)
	os.Exit(1)
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "litmusbench: "+format+"\n", args...)
}

// run executes one benchmark run.
func run(ctx context.Context, o options) (*result, error) {
	golden, err := os.ReadFile(filepath.Join(o.root, "testdata", "golden_assessment.json"))
	if err != nil {
		return nil, fmt.Errorf("reading the golden fixture: %w", err)
	}
	topo, err := newTopology()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	hc := httpClient()
	defer hc.CloseIdleConnections()
	env := &env{seed: o.seed, topo: topo, golden: golden, dir: dir, hc: hc}
	w, err := newWorkload(o.workload, env)
	if err != nil {
		return nil, err
	}
	if err := w.prepare(ctx); err != nil {
		return nil, fmt.Errorf("preparing inputs: %w", err)
	}
	defer func() {
		if err := w.teardown(); err != nil {
			logf("teardown: %v", err)
		}
	}()

	// Set up several times; the last set-up serves the run.
	var setups []float64
	for k := 0; k < setupReps; k++ {
		if k > 0 {
			if err := w.teardown(); err != nil {
				return nil, fmt.Errorf("teardown: %w", err)
			}
		}
		t0 := time.Now()
		if err := w.setup(ctx, k); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	logf("%s: set-up %.3fs (median of %v)", o.workload, median(setups), setups)

	dur := time.Duration(o.seconds * float64(time.Second))
	res := &result{Metrics: map[string]metric{}}
	if o.trace {
		if err := traced(ctx, o, env, w, dur, res); err != nil {
			return nil, err
		}
	} else {
		untraced(ctx, w, dur, median(setups), res)
	}
	att, failed := w.verify(ctx)
	res.Attempted += att
	res.Failed += failed
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			// JSON has no NaN or infinity; only a run whose ops failed
			// gets here.
			logf("metric %s is %v; reported as 0", name, m.Value)
			res.Metrics[name] = metric{0, m.Unit}
		}
	}
	res.Correct = res.Failed == 0 && env.failures() == 0
	if env.failures() > 0 {
		logf("output checks failed: %v", env.failureNotes())
	}
	return res, nil
}

// untraced measures the end-to-end metrics.
func untraced(ctx context.Context, w workload, dur time.Duration, setup float64, res *result) {
	lr := closedLoop(ctx, dur, samplesFor(p99), 4*dur, dur/windows, w.op)
	res.Attempted, res.Failed = lr.attempted, lr.failed
	lat := lr.sortedLatencies()
	p50, _ := nearestRank(lat, 0.5)
	_, beyond := nearestRank(lat, p99)
	logf("%d ops (%d calls) in %.2fs, %d windows; p99 has %d samples beyond it", lr.entries, len(lat), lr.wall.Seconds(), len(lr.windows), beyond)
	var qs []string
	for _, q := range []float64{0.5, 0.9, 0.95, 0.98, 0.99, 0.995, 0.999} {
		v, _ := nearestRank(lat, q)
		qs = append(qs, fmt.Sprintf("p%g=%.3fms", 100*q, v))
	}
	logf("latency %s", strings.Join(qs, " "))
	res.Metrics["setup_s"] = metric{setup, "s"}
	res.Metrics["throughput_ops_s"] = metric{lr.windowMedian(func(w window) float64 { return float64(w.ops) / w.dur.Seconds() }), "ops/s"}
	res.Metrics["latency_p50_ms"] = metric{p50, "ms"}
	res.Metrics["cpu_ms_per_op"] = metric{lr.windowMedian(func(w window) float64 { return ms(w.cpu) / float64(w.ops) }), "ms"}
	res.Metrics["alloc_mb_per_op"] = metric{lr.windowMedian(func(w window) float64 { return float64(w.alloc) / 1e6 / float64(w.ops) }), "MB"}
	res.Metrics["mem_peak_mb"] = metric{lr.windowMedian(func(w window) float64 { return float64(w.peakRSS) / 1e6 }), "MB"}
}
