package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"time"

	"repro/internal/serve/journal"
)

// endToEndUnits are the metrics of an untraced run.
var endToEndUnits = map[string]string{
	"setup_s":          "s",
	"throughput_ops_s": "ops/s",
	"latency_p50_ms":   "ms",
	"cpu_ms_per_op":    "ms",
	"alloc_mb_per_op":  "MB",
	"mem_peak_mb":      "MB",
}

// layerUnits are the metrics of a traced run. A layer a workload does
// not reach reports 0.
var layerUnits = map[string]string{
	"netsim.build_ms":                        "ms",
	"core.assess_group_cold_ms":              "ms",
	"core.assess_group_warm_ms":              "ms",
	"gen.series_ms":                          "ms",
	"gen.series_calls_per_op":                "count",
	"control.select_ms":                      "ms",
	"litmus.assess_change_ms":                "ms",
	"litmus.assess_batch_ms_per_entry":       "ms",
	"litmus.marshal_ms":                      "ms",
	"litmus.factorizations_reused_per_entry": "count",
	"litmus.panels_shared_per_entry":         "count",
	"core.iterations_per_op":                 "count",
	"core.before_factorizations_per_op":      "count",
	"obs.overhead_frac":                      "ratio",
	"serve.compile_ms":                       "ms",
	"serve.queue_wait_ms":                    "ms",
	"serve.run_ms":                           "ms",
	"serve.cache_hit_ratio":                  "ratio",
	"serve.jobs_computed_per_op":             "count",
	"serve.queue_rejected_per_op":            "count",
	"client.submit_ms":                       "ms",
	"client.poll_ms":                         "ms",
	"client.result_ms":                       "ms",
	"client.polls_per_op":                    "count",
	"client.poll_lag_ms":                     "ms",
	"client.round_trips_per_op":              "count",
	"shard.overhead_ms":                      "ms",
	"shard.owner_first_ratio":                "ratio",
	"shard.failovers_per_op":                 "count",
	"shard.hedges_per_op":                    "count",
	"shard.breaker_skips_per_op":             "count",
	"journal.append_ms":                      "ms",
	"journal.appends_per_op":                 "count",
	"journal.bytes_per_op":                   "bytes",
	"journal.replay_s":                       "s",
	"unattributed_frac":                      "ratio",
	"bench.trace_overhead_frac":              "ratio",
	"bench.served_cpu_ms_per_op":             "ms",
	"bench.inprocess_cpu_ms_per_op":          "ms",
}

// minReplays is the fewest in-process replays a traced run makes, even
// when the replay phase's time is spent.
const minReplays = 3

// traced is the traced run: an untraced served phase (for the trace
// overhead and the served CPU per op), a traced served phase, and the
// in-process layer replay.
func traced(ctx context.Context, o options, e *env, w workload, dur time.Duration, res *result) error {
	dA := time.Duration(phaseA * float64(dur))
	dB := time.Duration(phaseB * float64(dur))
	dC := dur - dA - dB

	u0 := snapshot()
	la := closedLoop(ctx, dA, 0, 4*dA, 0, w.op)
	u1 := snapshot()

	t := newTracer()
	c0 := w.counters()
	lb := closedLoop(ctx, dB, 0, 4*dB, 0, func(ctx context.Context) (int, error) { return w.tracedOp(ctx, t) })
	c1 := w.counters()
	res.Attempted = la.attempted + lb.attempted
	res.Failed = la.failed + lb.failed

	ks, err := kpis()
	if err != nil {
		return err
	}
	jr, err := journal.Open(journal.Options{Dir: filepath.Join(e.dir, "replay-journal")})
	if err != nil {
		return err
	}
	r := &replayer{t: t, kpis: ks, jr: jr}
	end := time.Now().Add(dC)
	replays := 0
	for ; replays < minReplays || time.Now().Before(end); replays++ {
		if err := w.replay(ctx, r, replays); err != nil {
			jr.Close()
			return fmt.Errorf("in-process replay %d: %w", replays, err)
		}
	}
	if err := jr.Close(); err != nil {
		return err
	}
	logf("traced run: %d untraced ops, %d traced ops, %d replays", la.entries, lb.entries, replays)

	m := layerMetrics(t, la, lb, c0, c1, e)
	m["bench.served_cpu_ms_per_op"] = ms(u1.cpu-u0.cpu) / float64(max(la.entries, 1))
	for name, v := range m {
		if math.IsNaN(v) {
			v = 0 // no samples: a layer this workload's path never reaches
		}
		res.Metrics[name] = metric{v, layerUnits[name]}
	}
	for name := range layerUnits {
		if _, ok := res.Metrics[name]; !ok {
			return fmt.Errorf("per-layer metric %s not computed", name)
		}
	}
	path := filepath.Join(o.work, "traces", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	meta := map[string]any{"workload": o.workload, "seed": o.seed, "seconds": o.seconds}
	if err := t.write(path, meta, "op", "replay"); err != nil {
		return fmt.Errorf("writing the trace: %w", err)
	}
	logf("trace written to %s", path)
	return nil
}

// layerMetrics derives the per-layer metrics from the traced phase's
// spans and samples, the replay, and the counter deltas.
func layerMetrics(t *tracer, la, lb loopResult, c0, c1 counts, e *env) map[string]float64 {
	opsB := float64(max(lb.entries, 1))
	med := func(name string) float64 { return median(t.sample(name)) }
	per := func(delta int64) float64 { return float64(delta) / opsB }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	pathOps := sum(t.sample("client.path_ops"))
	routerOps := float64(t.count("op.router"))

	m := map[string]float64{
		"netsim.build_ms":                        med("netsim.build"),
		"core.assess_group_cold_ms":              med("core.assess_group_cold"),
		"core.assess_group_warm_ms":              med("core.assess_group_warm"),
		"control.select_ms":                      med("control.select"),
		"litmus.assess_change_ms":                med("litmus.assess_change"),
		"litmus.assess_batch_ms_per_entry":       med("litmus.assess_batch_per_entry"),
		"litmus.marshal_ms":                      med("litmus.marshal"),
		"litmus.factorizations_reused_per_entry": per(c1.factReused - c0.factReused),
		"litmus.panels_shared_per_entry":         per(c1.panelsShared - c0.panelsShared),
		"core.iterations_per_op":                 per(c1.iterations - c0.iterations),
		"core.before_factorizations_per_op":      per(c1.beforeFact - c0.beforeFact),
		"serve.compile_ms":                       med("serve.compile"),
		"serve.queue_wait_ms":                    med("serve.queue_wait"),
		"serve.run_ms":                           med("serve.run"),
		"serve.cache_hit_ratio":                  ratio(float64(c1.hits-c0.hits), float64(c1.hits-c0.hits+c1.misses-c0.misses)),
		"serve.jobs_computed_per_op":             per(c1.jobs - c0.jobs),
		"serve.queue_rejected_per_op":            per(c1.rejected - c0.rejected),
		"client.submit_ms":                       med("client.submit"),
		"client.poll_ms":                         med("client.poll"),
		"client.result_ms":                       med("client.result"),
		"client.polls_per_op":                    ratio(float64(t.count("client.poll")), pathOps),
		"client.poll_lag_ms":                     med("client.poll_lag"),
		"client.round_trips_per_op":              ratio(float64(t.count("client.submit")+t.count("client.poll")+t.count("client.result")), pathOps),
		"journal.append_ms":                      med("journal.append"),
		"journal.appends_per_op":                 per(c1.appends - c0.appends),
		"journal.bytes_per_op":                   per(journalDelta(c0, c1)),
		"bench.inprocess_cpu_ms_per_op":          med("bench.inprocess_cpu"),
	}

	// Series synthesis and the observability overhead are read on the
	// path the workload's ops take: the batch path for changelogs, the
	// single path otherwise.
	if t.count("litmus.assess_batch_obs") > 0 {
		m["gen.series_ms"] = med("gen.series_per_entry")
		m["gen.series_calls_per_op"] = med("gen.series_calls_per_entry")
		m["obs.overhead_frac"] = med("litmus.assess_batch_obs_per_entry")/med("litmus.assess_batch_per_entry") - 1
	} else {
		m["gen.series_ms"] = med("gen.series_per_op")
		m["gen.series_calls_per_op"] = med("gen.series_calls_per_op")
		m["obs.overhead_frac"] = med("litmus.assess_change_obs")/med("litmus.assess_change") - 1
	}

	// Router metrics, over the traced phase's router calls.
	if routerOps > 0 {
		m["shard.overhead_ms"] = med("op.router") - med("op.direct")
		m["shard.owner_first_ratio"] = ratio(float64(c1.routed-c0.routed-(c1.failovers-c0.failovers)), float64(c1.routed-c0.routed))
		m["shard.failovers_per_op"] = float64(c1.failovers-c0.failovers) / routerOps
		m["shard.hedges_per_op"] = float64(c1.hedges-c0.hedges) / routerOps
		m["shard.breaker_skips_per_op"] = float64(c1.skips-c0.skips) / routerOps
		m["bench.trace_overhead_frac"] = med("op.router")/median(la.latencies) - 1
	} else {
		for _, name := range []string{"shard.overhead_ms", "shard.owner_first_ratio", "shard.failovers_per_op", "shard.hedges_per_op", "shard.breaker_skips_per_op"} {
			m[name] = 0
		}
		m["bench.trace_overhead_frac"] = med("op.wall")/median(la.latencies) - 1
	}

	e.mu.Lock()
	m["journal.replay_s"] = median(e.replays)
	e.mu.Unlock()

	b := selfTimes(t.spansCopy(), "op")
	m["unattributed_frac"] = ratio(float64(b.Unattributed), float64(b.Wall))
	return m
}
