package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/kpi"
	"repro/internal/obs"
	"repro/internal/timeseries"
)

// clonePanel copies a panel into fresh storage: a distinct *Panel with
// identical content.
func clonePanel(p *timeseries.Panel) *timeseries.Panel {
	c := timeseries.NewPanel(p.Index())
	for _, id := range p.IDs() {
		c.Add(id, p.MustSeries(id).Clone())
	}
	return c
}

// assessGroupsJobs builds the AssessGroups fixture: three jobs against
// distinct but value-identical control panels at one change time (one
// shared preparation), then three that must not join that group — a
// later change time, a control panel one value bit apart, and a study
// group whose every element has a gap in its before window — and an
// empty study group.
func assessGroupsJobs() []GroupJob {
	studies, controls, at := groupWorld(31)
	otherStudies, _, _ := groupWorld(32)
	flipped := clonePanel(controls)
	v := flipped.MustSeries(flipped.IDs()[3]).Values
	v[5] = math.Float64frombits(math.Float64bits(v[5]) ^ 1)
	gappy := clonePanel(studies)
	for _, id := range gappy.IDs() {
		gappy.MustSeries(id).Values[2] = math.NaN()
	}
	return []GroupJob{
		{Studies: studies, Controls: controls, At: at, Metric: kpi.VoiceRetainability},
		{Studies: otherStudies, Controls: clonePanel(controls), At: at, Metric: kpi.DataAccessibility},
		{Studies: studies, Controls: clonePanel(controls), At: at, Metric: kpi.VoiceRetainability},
		{Studies: studies, Controls: clonePanel(controls), At: at.Add(24 * time.Hour), Metric: kpi.VoiceRetainability},
		{Studies: studies, Controls: flipped, At: at, Metric: kpi.VoiceRetainability},
		{Studies: gappy, Controls: clonePanel(controls), At: at, Metric: kpi.VoiceRetainability},
		{Studies: timeseries.NewPanel(studies.Index()), Controls: controls, At: at, Metric: kpi.VoiceRetainability},
	}
}

// sharedJobs is how many leading jobs of assessGroupsJobs share one
// preparation.
const sharedJobs = 3

// TestAssessGroupsSharesValueIdenticalPanels pins which jobs share: the
// value-identical panels form one group and are prepared once under the
// receiver's scope; every other job prepares (or falls back) on its own.
func TestAssessGroupsSharesValueIdenticalPanels(t *testing.T) {
	jobs := assessGroupsJobs()
	if got, want := factorGroups(jobs), [][]int{{0, 1, 2}, {3}, {4}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("factorGroups = %v, want %v", got, want)
	}

	a := MustNewAssessor(Config{})
	iters := int64(a.Config().Iterations)
	batchReg := obs.NewRegistry()
	jobRegs := make([]*obs.Registry, len(jobs))
	for i := range jobs {
		jobRegs[i] = obs.NewRegistry()
		jobs[i].Obs = obs.New("job", jobRegs[i])
	}
	_, errs, reused := a.WithObserver(obs.New("batch", batchReg)).AssessGroups(context.Background(), jobs)
	if reused != sharedJobs*iters {
		t.Errorf("reused = %d, want %d members × %d factorizations", reused, sharedJobs, iters)
	}
	if got := batchReg.Counter(obs.MetricBeforeFactorizations).Value(); got != iters {
		t.Errorf("shared-prep before-window factorizations = %d, want one preparation's %d", got, iters)
	}
	for i := range jobs {
		want := int64(0)
		if i < sharedJobs {
			want = iters
		}
		if got := jobRegs[i].Counter(obs.MetricBatchFactorizationsReused).Value(); got != want {
			t.Errorf("job %d: adopted factorizations = %d, want %d", i, got, want)
		}
	}
	if errs[len(jobs)-1] == nil || errs[len(jobs)-1].Error() != "core: empty study group" {
		t.Errorf("empty study group: error %v, want core: empty study group at its own position", errs[len(jobs)-1])
	}
	for i, err := range errs[:len(jobs)-1] {
		if err != nil {
			t.Errorf("job %d: unexpected error %v", i, err)
		}
	}
}

// TestAssessGroupsMatchesAssessGroupContext pins the equivalence
// contract: every job's result and error equal one AssessGroupContext
// call on the same arguments, at every worker count.
func TestAssessGroupsMatchesAssessGroupContext(t *testing.T) {
	ctx := context.Background()
	for _, workers := range []int{1, 2, 4} {
		jobs := assessGroupsJobs()
		a := MustNewAssessor(Config{Workers: workers})
		results, errs, _ := a.AssessGroups(ctx, jobs)
		if len(results) != len(jobs) || len(errs) != len(jobs) {
			t.Fatalf("workers %d: %d results, %d errors for %d jobs", workers, len(results), len(errs), len(jobs))
		}
		for i, j := range jobs {
			want, wantErr := a.AssessGroupContext(ctx, j.Studies, j.Controls, j.At, j.Metric)
			if fmt.Sprint(errs[i]) != fmt.Sprint(wantErr) {
				t.Errorf("workers %d job %d: error %v, want %v", workers, i, errs[i], wantErr)
				continue
			}
			if err := equalGroupResults(results[i], want); err != nil {
				t.Errorf("workers %d job %d: %v", workers, i, err)
			}
		}
	}
}

// equalGroupResults compares two group results bit-for-bit.
func equalGroupResults(a, b GroupResult) error {
	if a.KPI != b.KPI || a.Overall != b.Overall || !reflect.DeepEqual(a.Votes, b.Votes) || !reflect.DeepEqual(a.Failures, b.Failures) {
		return fmt.Errorf("group summary %v/%v/%v/%v != %v/%v/%v/%v", a.KPI, a.Overall, a.Votes, a.Failures, b.KPI, b.Overall, b.Votes, b.Failures)
	}
	if len(a.PerElement) != len(b.PerElement) {
		return fmt.Errorf("%d per-element results, want %d", len(a.PerElement), len(b.PerElement))
	}
	for i := range a.PerElement {
		if a.PerElement[i].ElementID != b.PerElement[i].ElementID {
			return fmt.Errorf("element %d: %s != %s", i, a.PerElement[i].ElementID, b.PerElement[i].ElementID)
		}
		if err := equalElementResults(a.PerElement[i], b.PerElement[i]); err != nil {
			return fmt.Errorf("element %s: %v", a.PerElement[i].ElementID, err)
		}
	}
	return nil
}
