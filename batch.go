package litmus

// Batch assessment with cross-change amortization. A changelog assessed
// one change at a time pays N× for work that is largely shared across
// changes on the same world: control selection depends only on the
// change's elements and propagation flag, panel assembly only on the
// control set, KPI and window, and the before-window QR factorizations
// only on the control panel's values and the change time. AssessBatch
// groups entries by those signatures, performs each distinct piece of
// work once, and shares the products read-only — with a per-change
// fallback so every entry's result stays bit-identical to an
// independent AssessChangeContext call (pinned by the equivalence test
// in batch_test.go at workers 1/2/4/8, including under fault
// injection).

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/changelog"
	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/obs"
)

// BatchEntry is one changelog entry of a batch assessment: the change
// plus, optionally, the series provider supplying its world (nil uses
// the pipeline's provider). Per-entry providers let a caller feed each
// change its own counter stream — the serve tier overlays each entry's
// effect on a shared base world this way — while the batch still shares
// factorizations across entries whose control panels carry identical
// values.
type BatchEntry struct {
	Change   *changelog.Change
	Provider SeriesProvider
}

// BatchAssessment is the outcome of one batch: per-entry assessments
// and errors, positionally 1:1 with the submitted entries, plus the
// sharing the batch achieved.
type BatchAssessment struct {
	// Results[i] is entry i's assessment; nil when Errors[i] != nil.
	Results []*ChangeAssessment
	// Errors[i] is entry i's failure (validation, control selection, or
	// every KPI unassessable); nil when the entry assessed. A failed
	// entry never fails the batch.
	Errors []error
	// PanelsShared counts per-KPI panel assemblies answered from an
	// earlier entry's identical assembly instead of re-fetched from the
	// provider.
	PanelsShared int64
	// FactorizationsReused counts before-window QR factorizations
	// adopted from a shared panel preparation instead of recomputed —
	// the cross-change analogue of the group-shared fast path.
	FactorizationsReused int64
}

// AssessChangelog assesses every change of a changelog against the
// pipeline's provider in one batch, amortizing control selection, panel
// assembly and before-window factorizations across entries with
// overlapping signatures. Results are bit-identical to calling
// AssessChangeContext once per change.
func (p *Pipeline) AssessChangelog(ctx context.Context, changes []*changelog.Change, kpis []KPI, windowDays int) (*BatchAssessment, error) {
	entries := make([]BatchEntry, len(changes))
	for i, c := range changes {
		entries[i] = BatchEntry{Change: c}
	}
	return p.AssessBatch(ctx, entries, kpis, windowDays)
}

// batchEntryState carries one entry through the batch phases.
type batchEntryState struct {
	change   *changelog.Change
	provider SeriesProvider
	esc      *obs.Scope
	err      error // terminal per-entry error (validation, selection)
	out      *ChangeAssessment
	failures []AssessmentFailure
	kpiErrs  []error
}

// panelEntry is one memoized per-KPI panel assembly: the panels plus the
// element-level failures and KPI-level error the assembly produced, so a
// cache hit replays them into the reusing entry exactly as a fresh
// assembly would.
type panelEntry struct {
	studies, controls *Panel
	fails             []AssessmentFailure
	err               error
}

type panelCacheKey struct {
	sel string // selection signature (elements + propagation)
	kpi int    // index into the batch's KPI list
	at  int64  // change time (UnixNano) — the window anchor
}

type selEntry struct {
	controls []string
	err      error
}

// AssessBatch assesses every entry of a batch, sharing control
// selections, panel assemblies and before-window factorizations across
// entries whose signatures coincide. Batch-level preconditions (no
// network, no KPIs, short window, canceled context) fail the whole call;
// everything else — an invalid change, a failed selection, unassessable
// KPIs — is reported per entry in BatchAssessment.Errors without
// affecting sibling entries.
//
// Determinism contract: entry i's Result and Error are bit-identical to
// AssessChangeContext(ctx, entries[i].Change, kpis, windowDays) on a
// pipeline whose Provider is entry i's provider, for every worker count.
// The shared products are precisely the values the per-change path would
// compute, so sharing can change cost but never bytes.
func (p *Pipeline) AssessBatch(ctx context.Context, entries []BatchEntry, kpis []KPI, windowDays int) (*BatchAssessment, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sc := p.Obs.Child(obs.SpanAssessBatch)
	defer sc.End()
	sc.SetAttr("entries", len(entries))
	sc.SetAttr("kpis", len(kpis))
	if p.Network == nil {
		return nil, fmt.Errorf("litmus: pipeline needs a network and a series provider")
	}
	if len(kpis) == 0 {
		return nil, fmt.Errorf("litmus: no KPIs to assess")
	}
	if windowDays < 2 {
		return nil, fmt.Errorf("litmus: window of %d days too short", windowDays)
	}
	assessor := p.Assessor
	if assessor == nil {
		var err error
		assessor, err = core.NewAssessor(core.Config{})
		if err != nil {
			return nil, err
		}
	}
	pred := p.ControlPredicate
	if pred == nil {
		pred = control.And(control.SameKind(), control.SameRegion())
	}
	sc.Counter(obs.MetricBatchEntries).Add(int64(len(entries)))

	out := &BatchAssessment{
		Results: make([]*ChangeAssessment, len(entries)),
		Errors:  make([]error, len(entries)),
	}
	states := make([]*batchEntryState, len(entries))
	defer func() {
		for _, st := range states {
			if st != nil {
				st.esc.End()
			}
		}
	}()

	// Phase 1 — sequential per-entry setup: validation, control
	// selection, panel assembly. Sequential because SeriesProvider
	// implementations need not be safe for concurrent use (the same
	// contract AssessChangeContext honors); selection and assembly are
	// memoized so entries with repeated signatures pay once. Each live
	// (entry × KPI) pair becomes one assessment job.
	var jobs []core.GroupJob
	selCache := map[string]selEntry{}
	panelCache := map[panelCacheKey]*panelEntry{}
	for i := range entries {
		change := entries[i].Change
		provider := entries[i].Provider
		if provider == nil {
			provider = p.Provider
		}
		st := &batchEntryState{change: change, provider: provider}
		states[i] = st
		st.esc = sc.Child(obs.SpanBatchEntry)
		if change != nil {
			st.esc.SetAttr("change", change.ID)
		}
		if provider == nil {
			st.err = fmt.Errorf("litmus: pipeline needs a network and a series provider")
			continue
		}
		if change == nil {
			st.err = fmt.Errorf("litmus: batch entry %d has no change", i)
			continue
		}
		if err := change.Validate(p.Network); err != nil {
			st.err = err
			continue
		}
		sk := batchSelKey(change)
		se, ok := selCache[sk]
		if !ok {
			sel := &control.Selector{
				Net:       p.Network,
				Predicate: pred,
				Exclude:   change.ImpactScope(p.Network),
				MaxSize:   p.MaxControls,
				Obs:       st.esc,
			}
			se.controls, se.err = sel.Select(change.Elements)
			selCache[sk] = se
		}
		if se.err != nil {
			st.err = fmt.Errorf("litmus: control selection: %w", se.err)
			continue
		}
		st.out = &ChangeAssessment{
			Change:       change,
			ControlGroup: se.controls,
			PerKPI:       make(map[KPI]GroupResult, len(kpis)),
		}
		st.kpiErrs = make([]error, len(kpis))
		// Assemblies are memoized only for entries reading the pipeline's
		// provider: a per-entry provider can serve different values for
		// the same element, so its panels are never shared by signature —
		// value-identical panels still share factorizations in phase 2.
		pp := *p
		pp.Provider = provider
		cacheable := entries[i].Provider == nil
		assembly := st.esc.Child(obs.SpanPanelAssembly)
		for ki, metric := range kpis {
			var pe *panelEntry
			if cacheable {
				key := panelCacheKey{sel: sk, kpi: ki, at: change.At.UnixNano()}
				if hit := panelCache[key]; hit != nil {
					sc.Counter(obs.MetricBatchPanelsShared).Add(1)
					out.PanelsShared++
					pe = hit
				} else {
					pe = assemblePanels(&pp, change, se.controls, metric, windowDays)
					panelCache[key] = pe
				}
			} else {
				pe = assemblePanels(&pp, change, se.controls, metric, windowDays)
			}
			st.failures = append(st.failures, pe.fails...)
			if pe.err != nil {
				st.kpiErrs[ki] = pe.err
				st.failures = append(st.failures, AssessmentFailure{KPI: metric, Reason: core.ReasonOf(pe.err), Detail: pe.err.Error()})
				continue
			}
			jobs = append(jobs, core.GroupJob{Studies: pe.studies, Controls: pe.controls, At: change.At, Metric: metric, Obs: st.esc})
		}
		assembly.End()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Phase 2 — the assessment grid, in one core call: it shares
	// before-window factorizations across jobs whose control panels are
	// value-identical at the same change time, then fans the jobs out.
	// Per-iteration seeding makes each group result independent of
	// scheduling, so the batch is deterministic for every worker count.
	results, errs, reused := assessor.WithObserver(sc).AssessGroups(ctx, jobs)
	out.FactorizationsReused = reused
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Phase 3 — per-entry gathering, in the per-change path's exact
	// order: KPI-level errors, then element-level degradations per voted
	// KPI, then the decision. Jobs are consumed in the order phase 2
	// built them.
	next := 0
	for i, st := range states {
		if st.err != nil {
			out.Errors[i] = st.err
			continue
		}
		var firstErr error
		failures := st.failures
		for ki, metric := range kpis {
			err := st.kpiErrs[ki]
			var res GroupResult
			if err == nil {
				res, err = results[next], errs[next]
				next++
				if err != nil {
					failures = append(failures, AssessmentFailure{KPI: metric, Reason: core.ReasonOf(err), Detail: err.Error()})
				}
			}
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("litmus: %v: %w", metric, err)
				}
				continue
			}
			for _, f := range res.Failures {
				failures = append(failures, AssessmentFailure{KPI: metric, Element: f.Element, Reason: f.Reason, Detail: f.Detail})
			}
			st.out.PerKPI[metric] = res
		}
		if len(st.out.PerKPI) == 0 {
			out.Errors[i] = firstErr
			continue
		}
		st.out.Failures = failures
		st.out.Degraded = len(failures) > 0
		st.out.Decision = decide(st.out.PerKPI)
		st.esc.Counter(obs.Labeled(obs.MetricDecisions, "decision", st.out.Decision.String())).Add(1)
		out.Results[i] = st.out
	}
	return out, nil
}

// assemblePanels runs the per-change path's panel assembly for one KPI
// and packages the outcome for memoization.
func assemblePanels(p *Pipeline, change *changelog.Change, controls []string, metric KPI, windowDays int) *panelEntry {
	studies, controlsPanel, fails, err := p.panels(change, controls, metric, windowDays)
	return &panelEntry{studies: studies, controls: controlsPanel, fails: fails, err: err}
}

// batchSelKey is the control-selection signature of a change: two
// changes with the same elements and propagation flag select identical
// control groups (the predicate, cap and network are pipeline-level).
func batchSelKey(c *changelog.Change) string {
	var b strings.Builder
	for _, e := range c.Elements {
		b.WriteString(e)
		b.WriteByte(0)
	}
	if c.PropagateToDescendants {
		b.WriteByte(1)
	}
	return b.String()
}
