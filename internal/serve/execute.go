package serve

// Job execution. Every computed job runs one path, whichever endpoint
// submitted it: a single POST /v1/assess is a changelog of one entry.
// The job's unique uncached entries go through the engine's batch path
// (litmus.Pipeline.AssessBatch) against one shared synthetic world, built
// in the exact construction sequence of the golden fixture on a network
// from the process-wide topology cache (topology.go); cached entries are
// spliced back in from their submit-time resolution. A
// single job's result is its entry's bytes and its entry's error is the
// job's error; a batch job's result is the BatchResultDoc.
//
// Determinism: each entry reads a provider that overlays only that
// entry's ground-truth effect on the shared base world. The generator
// consumes no randomness for elements outside an effect's scope, so an
// entry's series — and therefore its result bytes — are identical to a
// world built with that entry's effect alone, and AssessBatch is pinned
// byte-identical to the per-change engine path, one-entry batches
// included (batch_test.go in the root package).
//
// Failures are not retried: the request is self-contained and the
// engine deterministic and free of I/O, so a rerun would feed the same
// bytes into the same error. Retries belong to the network layers
// (client, shard.Router). A panic anywhere in a job is recovered into a
// stack-annotated error, counted in litmus_job_panics_total, and fails
// only that job — the worker survives. Resubmitting a failed job reruns
// it (the failure may have been a timeout or a drain-time cancellation).

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"

	"repro/internal/changelog"
	"repro/internal/control"
	"repro/internal/gen"
	"repro/internal/kpi"
	"repro/internal/obs"
	"repro/internal/serve/journal"

	litmus "repro"
)

// panicError is a recovered job panic: the panic value plus the stack
// at recovery time, so the bug is diagnosable from the job record.
type panicError struct {
	val   any
	stack []byte
}

func (e *panicError) Error() string {
	return fmt.Sprintf("job panicked: %v\n%s", e.val, e.stack)
}

// jobResult is one execution's outcome: the canonical result bytes, the
// degraded flag, the isolated degradations of a single's partial
// assessment, and the execution's trace root — the job record retains
// the span and failures so GET /v1/jobs/{id}/trace can replay the
// execution after the fact.
type jobResult struct {
	result   []byte
	degraded bool
	failures []litmus.AssessmentFailureDoc
	span     *obs.Span
}

// entryOutcome is one computed entry's result.
type entryOutcome struct {
	result   []byte
	degraded bool
	failures []litmus.AssessmentFailure
	errText  string
}

// executeJob runs j under ctx. A panic anywhere in the job — world
// build, assessment, serialization — is recovered into a *panicError so
// the worker survives; the job's span (partial on panic) survives in the
// returned result either way.
func (s *Server) executeJob(ctx context.Context, j *job) (jr jobResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.reg.Counter(obs.MetricJobPanics).Add(1)
			jr.result, jr.degraded, jr.failures = nil, false, nil
			err = &panicError{val: r, stack: debug.Stack()}
		}
	}()

	// The trace root records stage latencies and engine counters into the
	// shared registry; the job keeps the span tree for the trace endpoint
	// until retention forgets it. Test hooks execute under the same root,
	// so hook executions trace too.
	scope := obs.New(obs.SpanServeJob, s.reg)
	defer scope.End()
	scope.SetAttr("job", j.id)
	scope.SetAttr("traceId", j.traceID)
	jr.span = scope.Span()

	if s.testExecute != nil {
		jr.result, jr.degraded, jr.failures, err = s.testExecute(ctx, j)
		return jr, err
	}

	outcomes, err := s.assessEntries(ctx, scope, j)
	if err != nil {
		return jr, err
	}
	if j.single {
		if cr, ok := j.resolved[j.id]; ok {
			jr.result, jr.degraded = cr.result, cr.degraded
			return jr, nil
		}
		o := outcomes[j.id]
		if o.errText != "" {
			return jr, errors.New(o.errText)
		}
		jr.result, jr.degraded = o.result, o.degraded
		for _, f := range o.failures {
			jr.failures = append(jr.failures, litmus.AssessmentFailureDoc{
				KPI: f.KPI.String(), Element: f.Element,
				Reason: string(f.Reason), Detail: f.Detail,
			})
		}
		return jr, nil
	}

	doc := BatchResultDoc{Entries: make([]BatchEntryResult, 0, len(j.entries))}
	for _, e := range j.entries {
		ent := BatchEntryResult{ID: e.digest, ChangeID: e.changeID}
		switch {
		case e.compileErr != "":
			ent.Error = e.compileErr
		default:
			if cr, ok := j.resolved[e.digest]; ok {
				ent.Cached = true
				ent.Degraded = cr.degraded
				ent.Assessment = cr.result
			} else {
				o := outcomes[e.digest]
				ent.Error = o.errText
				ent.Degraded = o.degraded
				ent.Assessment = o.result
			}
		}
		if ent.Degraded {
			jr.degraded = true
		}
		doc.Entries = append(doc.Entries, ent)
	}
	jr.result, err = json.Marshal(&doc)
	return jr, err
}

// assessEntries computes j's pending entries in one engine batch and
// returns their outcomes by digest. A batch job's computed entries land
// in the cache under the per-entry digests — the keys single submissions
// use — and in the journal the moment they are computed, so the entries
// a batch finished survive a later crash or hard stop. A single job's
// entry digest is the job id: its one result is cached and journaled
// once, as the job's completion.
func (s *Server) assessEntries(ctx context.Context, scope *obs.Scope, j *job) (map[string]entryOutcome, error) {
	outcomes := map[string]entryOutcome{}
	if len(j.pending) == 0 {
		return outcomes, nil
	}
	base := j.pending[0].req
	net := topologies.network(base)
	gcfg := gen.DefaultConfig(base.index)
	gcfg.Seed = base.genSeed
	baseGen := gen.New(net, gcfg)

	assessor, err := litmus.NewAssessor(base.cfg)
	if err != nil {
		return nil, err
	}
	var pred litmus.Predicate
	if len(base.preds) == 1 {
		pred = base.preds[0]
	} else {
		pred = control.And(base.preds...)
	}

	// Base-world series are identical for every entry, so synthesize
	// each (element, KPI) series once per job instead of once per entry.
	// Panel assembly — the only phase that calls providers — is
	// sequential, and panels treat series values as read-only, so a plain
	// map and shared Series values are safe. Memoized values are
	// bit-identical to fresh syntheses (the generator is deterministic),
	// so per-entry results are unaffected.
	type baseKey struct{ id, metric string }
	baseCache := map[baseKey]litmus.Series{}
	baseSeries := func(id string, metric kpi.KPI) litmus.Series {
		k := baseKey{id, metric.String()}
		sv, ok := baseCache[k]
		if !ok {
			sv = baseGen.Series(id, metric)
			baseCache[k] = sv
		}
		return sv
	}

	var entries []litmus.BatchEntry
	var digests []string
	for _, pe := range j.pending {
		change, err := pe.req.buildChange()
		if err == nil {
			err = change.Validate(net)
		}
		if err != nil {
			outcomes[pe.digest] = entryOutcome{errText: fmt.Sprintf("change does not fit the requested topology: %v", err)}
			continue
		}
		// Per-entry provider: elements inside this change's impact scope
		// read a generator carrying only this change's effect; everything
		// else reads the shared base world, so every entry's control
		// panels share the base generator's one-time series synthesis
		// and, downstream, one set of factorizations.
		egcfg := gen.DefaultConfig(base.index)
		egcfg.Seed = base.genSeed
		egcfg.Effects = []gen.Effect{change.Effect(net)}
		eg := gen.New(net, egcfg)
		inScope := map[string]bool{}
		for _, id := range change.ImpactScope(net) {
			inScope[id] = true
		}
		provider := litmus.ProviderFunc(func(id string, metric kpi.KPI) (litmus.Series, bool) {
			if net.Element(id) == nil {
				return litmus.Series{}, false
			}
			if inScope[id] {
				return eg.Series(id, metric), true
			}
			return baseSeries(id, metric), true
		})
		entries = append(entries, litmus.BatchEntry{Change: change, Provider: provider})
		digests = append(digests, pe.digest)
	}
	if len(entries) > 0 {
		p := &litmus.Pipeline{
			Network:          net,
			Assessor:         assessor,
			ControlPredicate: pred,
			MaxControls:      base.maxCtrls,
			Obs:              scope,
		}
		res, err := p.AssessBatch(ctx, entries, base.kpis, base.window)
		if err != nil {
			return nil, err
		}
		for i, d := range digests {
			if res.Errors[i] != nil {
				outcomes[d] = entryOutcome{errText: res.Errors[i].Error()}
				continue
			}
			b, err := litmus.MarshalAssessment(res.Results[i])
			if err != nil {
				return nil, err
			}
			outcomes[d] = entryOutcome{result: b, degraded: res.Results[i].Degraded, failures: res.Results[i].Failures}
		}
	}
	if j.single {
		return outcomes, nil
	}
	s.mu.Lock()
	for d, o := range outcomes {
		if o.errText == "" {
			s.journalAppendLocked(journal.Record{Kind: journal.KindComplete, Digest: d, Degraded: o.degraded, Payload: o.result})
			s.cache.put(d, cachedResult{result: o.result, degraded: o.degraded})
		}
	}
	s.mu.Unlock()
	return outcomes, nil
}

// buildChange materializes the request's change record. Topology fit is
// not checked here — callers validate against their network.
func (c *compiledRequest) buildChange() (*changelog.Change, error) {
	changeType, err := changelog.ParseType(c.norm.Change.Type)
	if err != nil {
		return nil, err
	}
	return &changelog.Change{
		ID:                     c.norm.Change.ID,
		Type:                   changeType,
		Description:            c.norm.Change.Description,
		Elements:               c.norm.Change.Elements,
		At:                     c.changeAt,
		PropagateToDescendants: c.norm.Change.PropagateToDescendants,
		TrueQuality:            c.norm.Change.TrueQuality,
		TrueLoadMult:           c.norm.Change.TrueLoadMult,
	}, nil
}
