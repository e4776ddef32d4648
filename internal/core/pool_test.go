package core

// Pool-safety tests for the process-wide arenas of scratch.go. Pooled
// panel factors, fit slots and worker scratch are reused across calls of
// any shape, so these tests interleave shapes (control count, sample
// size, window length, Iterations), entry points (AssessGroups,
// AssessGroupContext, AssessElementContext) and canceled runs, and
// require every result to equal its cold first computation; that results
// held from earlier calls never change; and that concurrent calls of
// distinct shapes stay correct. `make race-pools` runs them under
// -race -count=10.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/kpi"
	"repro/internal/timeseries"
)

// poolShape is one assessment shape: a synthetic world plus the
// configuration that sizes the pooled arenas.
type poolShape struct {
	seed            int64
	days, changeDay int     // window lengths
	controls        int     // n
	fraction        float64 // sets k
	iters           int
	workers         int
}

var poolShapes = []poolShape{
	{seed: 41, days: 28, changeDay: 14, controls: 9, fraction: 2.0 / 3, iters: 20, workers: 1},
	{seed: 42, days: 40, changeDay: 20, controls: 15, fraction: 0.9, iters: 50, workers: 2},
	{seed: 43, days: 21, changeDay: 10, controls: 5, fraction: 0.6, iters: 200, workers: 4},
	{seed: 44, days: 60, changeDay: 30, controls: 12, fraction: 0.75, iters: 50, workers: 1},
}

// poolFixture is a shape's inputs: a study group whose second element
// has a gap in its before window (so AssessGroup mixes the shared and
// per-element paths), a control panel and a value-identical copy.
type poolFixture struct {
	a                 *Assessor
	studies, controls *timeseries.Panel
	controlsCopy      *timeseries.Panel
	at                time.Time
	element           timeseries.Series
	elementID         string
	metric            kpi.KPI
	shape             poolShape
}

func (s poolShape) fixture() poolFixture {
	w := newSynthWorld(s.seed, s.days, s.changeDay)
	controls := w.controls(s.controls, 0.8, 1.2)
	studies := timeseries.NewPanel(w.ix)
	studies.Add("s1", w.series(10, 1.0, -0.5))
	gappy := w.series(10, 0.9, 0.3)
	gappy.Values[2] = math.NaN()
	studies.Add("s2", gappy)
	studies.Add("s3", w.series(10, 1.1, 0))
	return poolFixture{
		a:            MustNewAssessor(Config{Iterations: s.iters, SampleFraction: s.fraction, Workers: s.workers, Seed: s.seed}),
		studies:      studies,
		controls:     controls,
		controlsCopy: clonePanel(controls),
		at:           w.changeAt,
		element:      w.series(10, 1.05, 0.4),
		elementID:    "e",
		metric:       kpi.VoiceRetainability,
		shape:        s,
	}
}

// poolOutcome is every entry point's result on one fixture: the two
// AssessGroups jobs (which share one preparation), one
// AssessGroupContext call and one AssessElementContext call.
type poolOutcome struct {
	groups  [2]GroupResult
	group   GroupResult
	element ElementResult
}

// poolOp runs one entry point on f, reporting into out.
type poolOp func(ctx context.Context, f poolFixture, out *poolOutcome) error

var poolOps = []struct {
	name string
	run  poolOp
}{
	{"AssessGroups", func(ctx context.Context, f poolFixture, out *poolOutcome) error {
		jobs := []GroupJob{
			{Studies: f.studies, Controls: f.controls, At: f.at, Metric: f.metric},
			{Studies: f.studies, Controls: f.controlsCopy, At: f.at, Metric: f.metric},
		}
		res, errs, _ := f.a.AssessGroups(ctx, jobs)
		out.groups = [2]GroupResult{res[0], res[1]}
		return errors.Join(errs...)
	}},
	{"AssessGroupContext", func(ctx context.Context, f poolFixture, out *poolOutcome) (err error) {
		out.group, err = f.a.AssessGroupContext(ctx, f.studies, f.controls, f.at, f.metric)
		return err
	}},
	{"AssessElementContext", func(ctx context.Context, f poolFixture, out *poolOutcome) (err error) {
		out.element, err = f.a.AssessElementContext(ctx, f.elementID, f.element, f.controls, f.at, f.metric)
		return err
	}},
}

// compute runs every entry point on f with a background context.
func (f poolFixture) compute(t *testing.T) poolOutcome {
	t.Helper()
	var out poolOutcome
	for _, op := range poolOps {
		if err := op.run(context.Background(), f, &out); err != nil {
			t.Fatalf("shape %+v %s: %v", f.shape, op.name, err)
		}
	}
	return out
}

// equalOutcomes compares two outcomes bit-for-bit.
func equalOutcomes(got, want poolOutcome) error {
	for i := range want.groups {
		if err := equalGroupResults(got.groups[i], want.groups[i]); err != nil {
			return fmt.Errorf("AssessGroups job %d: %v", i, err)
		}
	}
	if err := equalGroupResults(got.group, want.group); err != nil {
		return fmt.Errorf("AssessGroupContext: %v", err)
	}
	if err := equalElementResults(got.element, want.element); err != nil {
		return fmt.Errorf("AssessElementContext: %v", err)
	}
	return nil
}

// cloneElement copies an element result into fresh storage.
func cloneElement(r ElementResult) ElementResult {
	r.ForecastBefore = r.ForecastBefore.Clone()
	r.ForecastAfter = r.ForecastAfter.Clone()
	r.DiffBefore = append([]float64(nil), r.DiffBefore...)
	r.DiffAfter = append([]float64(nil), r.DiffAfter...)
	return r
}

// cloneGroup copies a group result's per-element vectors into fresh
// storage.
func cloneGroup(g GroupResult) GroupResult {
	per := make([]ElementResult, len(g.PerElement))
	for i, r := range g.PerElement {
		per[i] = cloneElement(r)
	}
	g.PerElement = per
	return g
}

func cloneOutcome(o poolOutcome) poolOutcome {
	for i := range o.groups {
		o.groups[i] = cloneGroup(o.groups[i])
	}
	o.group = cloneGroup(o.group)
	o.element = cloneElement(o.element)
	return o
}

// TestPoolShapesInterleaved interleaves every entry point over shapes of
// different n, k, window length and Iterations, with a run canceled
// mid-iteration before each call, and requires every result to equal
// the shape's cold first computation.
func TestPoolShapesInterleaved(t *testing.T) {
	fixtures := make([]poolFixture, len(poolShapes))
	cold := make([]poolOutcome, len(poolShapes))
	for i, s := range poolShapes {
		fixtures[i] = s.fixture()
		cold[i] = fixtures[i].compute(t)
	}
	for round := 0; round < 3; round++ {
		for step := 0; step < len(fixtures)*len(poolOps); step++ {
			// Walk shapes and entry points in a different order each
			// round, so every arena sees every predecessor shape.
			fi := (step + round) % len(fixtures)
			oi := (step/len(fixtures) + round) % len(poolOps)
			f, op := fixtures[fi], poolOps[oi]

			// A canceled run leaves its arenas half written.
			var scrap poolOutcome
			cancelAt := int64(3 + 5*round + step%7)
			if err := op.run(newCountdownCtx(cancelAt), fixtures[(fi+1)%len(fixtures)], &scrap); !errors.Is(err, context.Canceled) {
				t.Fatalf("round %d %s: canceled run returned %v, want context.Canceled", round, op.name, err)
			}

			got := cold[fi]
			if err := op.run(context.Background(), f, &got); err != nil {
				t.Fatalf("round %d shape %d %s: %v", round, fi, op.name, err)
			}
			if err := equalOutcomes(got, cold[fi]); err != nil {
				t.Errorf("round %d shape %d %s: %v", round, fi, op.name, err)
			}
		}
	}
}

// TestPoolResultsDoNotAlias holds every shape's results, lets later
// calls of every shape reuse the arenas, and requires the held results
// to be unchanged.
func TestPoolResultsDoNotAlias(t *testing.T) {
	fixtures := make([]poolFixture, len(poolShapes))
	held := make([]poolOutcome, len(poolShapes))
	snapshots := make([]poolOutcome, len(poolShapes))
	for i, s := range poolShapes {
		fixtures[i] = s.fixture()
		held[i] = fixtures[i].compute(t)
		snapshots[i] = cloneOutcome(held[i])
	}
	for round := 0; round < 2; round++ {
		for i := len(fixtures) - 1; i >= 0; i-- {
			fixtures[i].compute(t)
		}
	}
	for i := range held {
		if err := equalOutcomes(held[i], snapshots[i]); err != nil {
			t.Errorf("shape %d: a held result changed after later calls: %v", i, err)
		}
	}
}

// TestPoolConcurrentAssessGroups runs AssessGroups over distinct shapes
// on four goroutines at once; every result must equal its shape's
// sequential reference. Meant for -race -count=10.
func TestPoolConcurrentAssessGroups(t *testing.T) {
	fixtures := make([]poolFixture, len(poolShapes))
	refs := make([]poolOutcome, len(poolShapes))
	for i, s := range poolShapes {
		fixtures[i] = s.fixture()
		if err := poolOps[0].run(context.Background(), fixtures[i], &refs[i]); err != nil {
			t.Fatal(err)
		}
	}
	const repeats = 3
	errs := make([]error, len(fixtures))
	var wg sync.WaitGroup
	for i := range fixtures {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < repeats && errs[i] == nil; r++ {
				got := refs[i]
				if err := poolOps[0].run(context.Background(), fixtures[i], &got); err != nil {
					errs[i] = err
					return
				}
				errs[i] = equalOutcomes(got, refs[i])
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("shape %d: %v", i, err)
		}
	}
}

// TestPoolArenasResetOnReuse pins the reset rule: whatever arena the
// pools hand out — fresh or dirtied by an earlier user — comes back with
// every iteration slot invalid, because a canceled or underdetermined
// iteration writes nothing and must not inherit a stale result.
func TestPoolArenasResetOnReuse(t *testing.T) {
	for round, iters := range []int{20, 50, 200, 50, 20} {
		pf := getPanelFactors(iters, 14)
		fits := getIterFits(iters, 14, 7)
		if len(pf.iters) != iters || len(fits.slots) != iters || len(pf.fitRows) != 14 {
			t.Fatalf("round %d: arenas sized %d/%d/%d, want %d iterations over 14 rows", round, len(pf.iters), len(fits.slots), len(pf.fitRows), iters)
		}
		for i, r := range pf.fitRows {
			if r != i {
				t.Fatalf("round %d: fitRows[%d] = %d", round, i, r)
			}
		}
		for it := range pf.iters {
			if pf.iters[it].ok || pf.iters[it].hs != nil {
				t.Fatalf("round %d: shared iteration %d not reset", round, it)
			}
			if fits.slots[it].ok || len(fits.slots[it].fb) != 14 || len(fits.slots[it].fa) != 7 {
				t.Fatalf("round %d: fit slot %d not reset to 14+7 forecasts", round, it)
			}
			// Dirty every slot for the next user.
			pf.iters[it].ok, pf.iters[it].hs = true, []float64{1}
			fits.slots[it].ok = true
		}
		pf.release()
		fits.release()
	}
}
