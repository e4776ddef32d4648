package core

// Cross-element factorization sharing for AssessGroup. The control
// columns iteration it draws depend only on (Seed, it, n, k) — never on
// the study element — so every element of a group fits against the same
// per-iteration design matrices. When an element's before window has no
// missing data its fit rows cover the whole window, and the expensive
// per-iteration products (the sampled designs, the QR factorization, the
// hat-matrix diagonal) are element-independent too: AssessGroup computes
// them once and every qualifying element reuses them read-only, reducing
// the group's before-window factorizations from Iterations × Elements to
// exactly Iterations. Elements with missing before-window data fall back
// to the ordinary per-element AssessElement path; results are
// bit-identical either way because the shared products are precisely the
// values the per-element path would compute.
//
// The same observation extends across changes: the per-iteration
// products depend only on the control panel's values, the change time
// and the assessor configuration — never on the study group. AssessGroups
// therefore assesses many study groups at once, preparing the products
// once per distinct (control panel, change time) pair, reducing a
// changelog's factorizations from Iterations × Changes to Iterations per
// distinct control panel.

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/kpi"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/timeseries"
)

// iterShared is one sampling iteration's element-independent products.
// All fields are read-only after prepPanelFactors returns; SolveInto and
// LeveragesInto only read the factorization, so concurrent solves against
// one iterShared are safe. The designs, factorization and buffers are
// held by value so a pooled panelFactors reuses their storage.
type iterShared struct {
	xb, xa linalg.Matrix // sampled before/after designs (with intercept)
	qr     linalg.QR     // factorization of xb
	hs     []float64     // hat-matrix diagonal of xb; nil if rank deficient
	hsBuf  []float64     // storage behind hs
	work   []float64     // leverage forward-solve work vector
	ok     bool          // false for underdetermined draws (skipped)
}

// panelFactors is the studies-independent portion of a group's shared
// preparation: everything derived from (control panel, change time,
// assessor config) alone. One panelFactors is reusable read-only by
// every group — and every change — assessed against a value-identical
// control panel at the same change time. It comes from a process-wide
// pool (see getPanelFactors) and goes back once its last reader returned.
type panelFactors struct {
	fitRows    []int
	iters      []iterShared
	factorized int64 // QR factorizations the compute pass performed
}

// groupShared is the per-group preparation shared by every qualifying
// element: the panel factors plus this study group's eligibility mask
// (aligned with the group's ID order).
type groupShared struct {
	*panelFactors
	eligible []bool
}

// allFinite reports whether xs contains only finite values — the
// no-missing-data condition under which an element's fit rows cover the
// whole before window.
func allFinite(xs []float64) bool {
	for _, v := range xs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// studyEligibility reports, per study element, whether its before window
// is fully observed (the sharing qualification), plus whether any
// element qualifies at all.
func studyEligibility(studies *timeseries.Panel, changeAt time.Time) (eligible []bool, any bool) {
	ids := studies.IDs()
	eligible = make([]bool, len(ids))
	for i, id := range ids {
		yb, _ := studies.MustSeries(id).SplitAt(changeAt)
		if allFinite(yb.Values) {
			eligible[i] = true
			any = true
		}
	}
	return eligible, any
}

// shareable reports whether the shared path can serve a group: study and
// control grids coincide and at least one study element has a fully
// observed before window. It also returns the group's eligibility mask.
func shareable(studies, controls *timeseries.Panel, changeAt time.Time) (eligible []bool, ok bool) {
	if !studies.Index().Equal(controls.Index()) {
		return nil, false
	}
	return studyEligibility(studies, changeAt)
}

// prepGroupShared qualifies the group for cross-element factorization
// sharing and, when at least one element qualifies, adopts pf — factors
// AssessGroups prepared for this exact control panel and change time —
// or, when pf is nil, computes the shared per-iteration products here.
// It returns nil when the panel itself cannot be assessed uniformly
// (index mismatch, too few controls, windows too short, no admissible
// sample size) or when no element has a fully observed before window —
// the caller then uses the per-element path unchanged.
func (a *Assessor) prepGroupShared(ctx context.Context, sc *obs.Scope, pf *panelFactors, studies, controls *timeseries.Panel, changeAt time.Time) *groupShared {
	eligible, ok := shareable(studies, controls, changeAt)
	if !ok {
		return nil
	}
	if pf != nil {
		sc.Counter(obs.MetricBatchFactorizationsReused).Add(pf.factorized)
	} else if pf = a.prepPanelFactors(ctx, sc, controls, changeAt); pf == nil {
		return nil
	}
	return &groupShared{panelFactors: pf, eligible: eligible}
}

// prepPanelFactors computes the studies-independent per-iteration
// products for one control panel split at changeAt. It returns nil when
// the panel cannot take the shared path (too few controls, windows too
// short, no admissible sample size).
func (a *Assessor) prepPanelFactors(ctx context.Context, sc *obs.Scope, controls *timeseries.Panel, changeAt time.Time) *panelFactors {
	n := controls.Len()
	if n < a.cfg.MinControls {
		return nil
	}
	xBefore, xAfter := controls.SplitAt(changeAt)
	lenB, lenA := xBefore.Index().N, xAfter.Index().N
	if lenB < 3 || lenA < 3 {
		return nil
	}
	k := a.sampleSize(n, lenB)
	if k < 1 {
		return nil
	}

	prep := sc.Child(obs.SpanGroupPrep)
	defer prep.End()
	pf := getPanelFactors(a.cfg.Iterations, lenB)
	xbFull := xBefore.DesignMatrix()
	xaFull := xAfter.DesignMatrix()
	samples := a.samplesFor(n, k)
	cancelable := ctx.Done() != nil
	var factorized, resampled atomic.Int64
	forEach(a.cfg.Workers, a.cfg.Iterations, func(it int) {
		if cancelable && ctx.Err() != nil {
			return
		}
		st := &pf.iters[it]
		cols := samples[it]
		for attempt := 0; ; attempt++ {
			xb := xbFull.SelectColsWithIntercept(&st.xb, cols)
			if xb.Rows() < xb.Cols() {
				// Underdetermined draw: resampling cannot change the shape;
				// the per-element path skips it too.
				return
			}
			st.qr.Factor(xb)
			factorized.Add(1)
			// The solver chain's failure conditions depend on the design
			// alone, so the group decides accept/resample once, exactly as
			// every element would alone (see resample.go).
			if designUsable(&st.qr, xb) {
				break
			}
			if attempt >= maxResampleAttempts {
				return
			}
			cols = a.resampleColumns(n, k, it, attempt+1)
			resampled.Add(1)
		}
		xaFull.SelectColsWithIntercept(&st.xa, cols)
		st.hsBuf = growFloats(st.hsBuf, st.xb.Rows())
		st.work = growFloats(st.work, st.xb.Cols())
		if err := st.qr.LeveragesInto(st.hsBuf, &st.xb, st.work); err == nil {
			st.hs = st.hsBuf
		}
		st.ok = true
	})
	pf.factorized = factorized.Load()
	sc.Counter(obs.MetricBeforeFactorizations).Add(factorized.Load())
	sc.Counter(obs.MetricControlsSampled).Add(int64(a.cfg.Iterations * k))
	sc.Counter(obs.MetricIterationsResampled).Add(resampled.Load())
	return pf
}

// GroupJob is one study group for AssessGroups: the arguments of one
// AssessGroupContext call plus the scope its spans and counters go
// under (nil records into the receiver's scope).
type GroupJob struct {
	Studies, Controls *timeseries.Panel
	At                time.Time
	Metric            kpi.KPI
	Obs               *obs.Scope
}

// AssessGroups assesses every job, results and errors positionally 1:1
// with jobs, sharing before-window factorizations across jobs whose
// control panels are value-identical at the same change time. Each
// group of at least two shareable jobs (see shareable) is prepared once,
// under the receiver's scope, before any job runs; a job no other job
// shares with prepares inside its own assessment, as AssessGroupContext
// does. The jobs then fan out over the worker pool. reused counts the
// adopted factorizations: Σ members × one preparation's factorizations.
//
// Job i's result and error are bit-identical to
// a.WithObserver(jobs[i].Obs).AssessGroupContext on the same arguments,
// for every worker count: the shared products are precisely the values
// each job would compute alone.
func (a *Assessor) AssessGroups(ctx context.Context, jobs []GroupJob) (results []GroupResult, errs []error, reused int64) {
	shared := make([]*panelFactors, len(jobs))
	var prepared []*panelFactors
	for _, members := range factorGroups(jobs) {
		if len(members) < 2 {
			continue
		}
		rep := jobs[members[0]]
		pf := a.prepPanelFactors(ctx, a.obs, rep.Controls, rep.At)
		if pf == nil {
			continue
		}
		prepared = append(prepared, pf)
		reused += int64(len(members)) * pf.factorized
		for _, m := range members {
			shared[m] = pf
		}
	}
	results = make([]GroupResult, len(jobs))
	errs = make([]error, len(jobs))
	forEach(a.cfg.Workers, len(jobs), func(i int) {
		j := jobs[i]
		if j.Obs == nil {
			j.Obs = a.obs
		}
		results[i], errs[i] = a.assessGroup(ctx, j, shared[i])
	})
	for _, pf := range prepared {
		pf.release()
	}
	return results, errs, reused
}

// factorGroups partitions the shareable jobs into groups whose control
// panels are value-identical at the same change time, each group a list
// of job indices in job order, groups in order of first appearance.
// Pointer identity (panels repeated by an assembly cache) short-circuits;
// otherwise panels are matched by content hash plus full verification,
// so a hash collision costs a comparison, never a wrong share.
func factorGroups(jobs []GroupJob) [][]int {
	var groups [][]int
	byPtr := map[*timeseries.Panel]int{}
	byHash := map[uint64][]int{}
	for i, j := range jobs {
		if _, ok := shareable(j.Studies, j.Controls, j.At); !ok {
			continue
		}
		g, ok := byPtr[j.Controls]
		if ok && !jobs[groups[g][0]].At.Equal(j.At) {
			ok = false
		}
		if !ok {
			h := panelContentHash(j.Controls, j.At)
			for _, cand := range byHash[h] {
				rep := jobs[groups[cand][0]]
				if rep.At.Equal(j.At) && panelsEqual(rep.Controls, j.Controls) {
					g, ok = cand, true
					break
				}
			}
			if !ok {
				g = len(groups)
				groups = append(groups, nil)
				byHash[h] = append(byHash[h], g)
			}
			if _, seen := byPtr[j.Controls]; !seen {
				byPtr[j.Controls] = g
			}
		}
		groups[g] = append(groups[g], i)
	}
	return groups
}

// panelContentHash fingerprints a control panel's assessment-relevant
// content — time grid, column IDs in order, every value's exact bits —
// plus the change time anchoring the before/after split. Equal content
// hashes equal; collisions are resolved by panelsEqual before sharing.
func panelContentHash(p *timeseries.Panel, at time.Time) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	idx := p.Index()
	w64(uint64(idx.Start.UnixNano()))
	w64(uint64(idx.Step))
	w64(uint64(idx.N))
	w64(uint64(at.UnixNano()))
	for _, id := range p.IDs() {
		h.Write([]byte(id))
		h.Write([]byte{0})
		for _, v := range p.MustSeries(id).Values {
			w64(math.Float64bits(v))
		}
	}
	return h.Sum64()
}

// panelsEqual reports bitwise value identity of two panels: same index,
// same column IDs in the same order, every observation's exact bits
// equal (NaNs compare by payload, so panels with identical missing-data
// patterns still match).
func panelsEqual(a, b *timeseries.Panel) bool {
	if !a.Index().Equal(b.Index()) || a.Len() != b.Len() {
		return false
	}
	aIDs, bIDs := a.IDs(), b.IDs()
	for i := range aIDs {
		if aIDs[i] != bIDs[i] {
			return false
		}
	}
	for _, id := range aIDs {
		av, bv := a.MustSeries(id).Values, b.MustSeries(id).Values
		if len(av) != len(bv) {
			return false
		}
		for j := range av {
			if math.Float64bits(av[j]) != math.Float64bits(bv[j]) {
				return false
			}
		}
	}
	return true
}

// assessElementShared is AssessElement for an element whose before window
// is fully observed, fitting against the group's shared per-iteration
// factorizations. Only the element-specific work remains in the loop: one
// triangular solve, two matrix–vector forecasts, R², and the leave-one-
// out adjustment. The arithmetic matches the per-element path operation
// for operation, so the result is bit-identical.
func (a *Assessor) assessElementShared(ctx context.Context, elementID string, study timeseries.Series, gs *groupShared, changeAt time.Time, metric kpi.KPI) (ElementResult, error) {
	if err := ctx.Err(); err != nil {
		return ElementResult{}, err
	}
	sc := a.obs.Child(obs.SpanAssessElement)
	sc.SetAttr("element", elementID)
	sc.SetAttr("kpi", metric.String())
	defer sc.End()
	yBefore, yAfter := study.SplitAt(changeAt)
	// The before window is fully observed (prepGroupShared qualified it),
	// so the fit observations are the window itself — no copy needed; the
	// solver only reads the right-hand side.
	ybFit := yBefore.Values

	iters := a.cfg.Iterations
	fits := getIterFits(iters, yBefore.Len(), yAfter.Len())
	defer fits.release()
	cancelable := ctx.Done() != nil
	var leverageSkipped atomic.Int64
	ws := newWorkerScratches(a.cfg.Workers, iters)
	sampling := sc.Child(obs.SpanSampling)
	forEachWorker(a.cfg.Workers, iters, func(w, it int) {
		if cancelable && ctx.Err() != nil {
			return
		}
		st := &gs.iters[it]
		if !st.ok {
			return
		}
		s := ws.get(w)
		s.beta = growFloats(s.beta, st.xb.Cols())
		s.swork = growFloats(s.swork, st.xb.Rows())
		// The same degradation chain as the per-element path; prep accepted
		// this design via designUsable, so one of the stages succeeds.
		if !solveWithFallbacks(&st.qr, &st.xb, s.beta, ybFit, s.swork) {
			return
		}
		fit := &fits.slots[it]
		fb := st.xb.MulVecInto(fit.fb, s.beta)
		st.xa.MulVecInto(fit.fa, s.beta)
		fit.r2 = rSquaredAtRows(fb, gs.fitRows, ybFit)
		if st.hs != nil {
			adjustLOO(fb, ybFit, gs.fitRows, st.hs)
		} else {
			leverageSkipped.Add(1)
		}
		fit.ok = true
	})
	sampling.End()
	ws.release()
	if err := ctx.Err(); err != nil {
		return ElementResult{}, err
	}
	sc.Counter(obs.MetricIterations).Add(int64(iters))
	sc.Counter(obs.MetricLeverageSkipped).Add(leverageSkipped.Load())
	return a.finishElement(sc, elementID, metric, yBefore, yAfter, fits.slots)
}
