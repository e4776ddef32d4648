package main

// The traced run's in-process replay: a workload's requests run through
// the engine's layers in this goroutine, with a span around each public
// call, so the served run's time can be split by layer. The replay runs
// after the served phases, with the nodes idle.

import (
	"context"
	"fmt"
	"time"

	"repro/internal/changelog"
	"repro/internal/control"
	"repro/internal/kpi"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/serve/journal"

	litmus "repro"
)

// replayer holds what every replay shares.
type replayer struct {
	t    *tracer
	kpis []kpi.KPI
	jr   *journal.Journal // the run's own journal for journal.Append timing
	req  int64            // replay request ids, counted down from -1
}

// timedProvider wraps a series provider with a gen.series span per call
// and running totals per op.
type timedProvider struct {
	inner  litmus.SeriesProvider
	t      *tracer
	parent int64
	req    int64
	calls  int
	dur    time.Duration
}

func (p *timedProvider) Series(id string, metric kpi.KPI) (litmus.Series, bool) {
	s := p.t.start("gen.series", p.parent, p.req)
	v, ok := p.inner.Series(id, metric)
	end := s.end()
	p.calls++
	p.dur += end.Sub(s.start)
	return v, ok
}

func (r *replayer) nextReq() int64 {
	r.req--
	return r.req
}

// single replays one request through every engine layer and returns the
// marshaled plain assessment — the bytes the service must have served
// for it.
func (r *replayer) single(ctx context.Context, q *serve.AssessRequest) ([]byte, error) {
	t, req := r.t, r.nextReq()
	root := t.start("replay", 0, req)
	defer root.end()

	cpu0 := cpuNow()
	s := t.start("serve.compile", root.id, req)
	id, err := serve.CanonicalJobID(q)
	s.end()
	if err != nil {
		return nil, err
	}
	s = t.start("netsim.build", root.id, req)
	net := netsim.Build(topoConfig())
	s.end()
	change, err := changeOf(q.Change)
	if err != nil {
		return nil, err
	}
	s = t.start("gen.new", root.id, req)
	g := generator(net, q.Generator.Seed, change.Effect(net))
	s.end()

	// The plain assessment: uninstrumented, series timed per call.
	s = t.start("litmus.assess_change", root.id, req)
	tp := &timedProvider{inner: genProvider(net, g), t: t, parent: s.id, req: req}
	res, err := pipeline(net, tp, nil).AssessChangeContext(ctx, change, r.kpis, windowDays)
	s.end()
	if err != nil {
		return nil, err
	}
	t.observe("gen.series_per_op", ms(tp.dur))
	t.observe("gen.series_calls_per_op", float64(tp.calls))
	s = t.start("litmus.marshal", root.id, req)
	b, err := litmus.MarshalAssessment(res)
	s.end()
	if err != nil {
		return nil, err
	}
	t.observe("bench.inprocess_cpu", ms(cpuNow()-cpu0))

	s = t.start("journal.append", root.id, req)
	err = r.jr.Append(journal.Record{Kind: journal.KindComplete, Digest: id, Payload: b})
	s.end()
	if err != nil {
		return nil, err
	}

	// Control selection alone, as the pipeline calls it.
	s = t.start("control.select", root.id, req)
	controls, err := (&control.Selector{Net: net, Predicate: predicate(), Exclude: change.ImpactScope(net)}).Select(change.Elements)
	s.end()
	if err != nil {
		return nil, err
	}

	// The same assessment with the observability scope attached.
	g = generator(net, q.Generator.Seed, change.Effect(net))
	s = t.start("litmus.assess_change_obs", root.id, req)
	_, err = pipeline(net, genProvider(net, g), obs.New("bench", obs.NewRegistry())).AssessChangeContext(ctx, change, r.kpis, windowDays)
	s.end()
	if err != nil {
		return nil, err
	}

	// Group assessment on a freshly built assessor, then again on the
	// same one: the gap is the per-assessor sample-table seeding.
	studies, ctrl, err := panels(genProvider(net, g), change, controls, r.kpis[0])
	if err != nil {
		return nil, err
	}
	a := litmus.MustNewAssessor(litmus.Config{Seed: assessSeed})
	s = t.start("core.assess_group_cold", root.id, req)
	_, err = a.AssessGroupContext(ctx, studies, ctrl, change.At, r.kpis[0])
	s.end()
	if err != nil {
		return nil, err
	}
	s = t.start("core.assess_group_warm", root.id, req)
	_, err = a.AssessGroupContext(ctx, studies, ctrl, change.At, r.kpis[0])
	s.end()
	if err != nil {
		return nil, err
	}
	return b, nil
}

// batchOfOne replays a single request as a one-entry batch.
func (r *replayer) batchOfOne(ctx context.Context, q *serve.AssessRequest) error {
	change, err := changeOf(q.Change)
	if err != nil {
		return err
	}
	_, err = r.batch(ctx, q.Generator.Seed, []*changelog.Change{change}, false)
	return err
}

// batch replays a changelog through Pipeline.AssessBatch the way the
// service's batch path builds it, with or without the observability
// scope, and returns the per-entry assessments.
func (r *replayer) batch(ctx context.Context, seed int64, changes []*changelog.Change, observed bool) (*litmus.BatchAssessment, error) {
	t, req := r.t, r.nextReq()
	name, scope := "litmus.assess_batch", (*obs.Scope)(nil)
	if observed {
		name, scope = "litmus.assess_batch_obs", obs.New("bench", obs.NewRegistry())
	}
	root := t.start("replay", 0, req)
	defer root.end()
	s := t.start("netsim.build", root.id, req)
	net := netsim.Build(topoConfig())
	s.end()
	s = t.start(name, root.id, req)
	var tps []*timedProvider
	entries := entryProviders(net, seed, changes, func(p litmus.SeriesProvider) litmus.SeriesProvider {
		tp := &timedProvider{inner: p, t: t, parent: s.id, req: req}
		tps = append(tps, tp)
		return tp
	})
	res, err := pipeline(net, nil, scope).AssessBatch(ctx, entries, r.kpis, windowDays)
	end := s.end()
	if err != nil {
		return nil, err
	}
	for i, e := range res.Errors {
		if e != nil {
			return nil, fmt.Errorf("batch entry %s: %w", changes[i].ID, e)
		}
	}
	n := float64(len(changes))
	t.observe(name+"_per_entry", ms(end.Sub(s.start))/n)
	if !observed && len(changes) > 1 {
		var calls int
		var dur time.Duration
		for _, tp := range tps {
			calls += tp.calls
			dur += tp.dur
		}
		t.observe("gen.series_per_entry", ms(dur)/n)
		t.observe("gen.series_calls_per_entry", float64(calls)/n)
	}
	return res, nil
}

// panels assembles one KPI's study and control panels over the change's
// windows, as the pipeline does.
func panels(p litmus.SeriesProvider, change *changelog.Change, controls []string, metric kpi.KPI) (*litmus.Panel, *litmus.Panel, error) {
	window := time.Duration(windowDays) * 24 * time.Hour
	from, to := change.At.Add(-window), change.At.Add(window)
	fill := func(ids []string) (*litmus.Panel, error) {
		var panel *litmus.Panel
		for _, id := range ids {
			s, ok := p.Series(id, metric)
			if !ok {
				return nil, fmt.Errorf("no %v data for %s", metric, id)
			}
			w := s.Window(from, to)
			if panel == nil {
				panel = litmus.NewPanel(w.Index)
			}
			panel.Add(id, w)
		}
		if panel == nil {
			return nil, fmt.Errorf("empty panel")
		}
		return panel, nil
	}
	studies, err := fill(change.Elements)
	if err != nil {
		return nil, nil, err
	}
	ctrl, err := fill(controls)
	return studies, ctrl, err
}
