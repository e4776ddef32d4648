package litmus

// Batch-vs-singles equivalence: AssessChangelog, and a one-entry
// AssessBatch per change, must be byte-identical (via
// MarshalAssessment) to N independent AssessChangeContext calls —
// at every worker count, with sharing-heavy and sharing-free entry
// mixes, and under fault injection. The sharing counters are asserted
// separately so a silent fall-back to the per-change path (correct but
// not amortized) still fails the suite.

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/changelog"
	"repro/internal/control"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/kpi"
	"repro/internal/netsim"
	"repro/internal/timeseries"
)

var batchKPIs = []KPI{kpi.VoiceRetainability, kpi.DataAccessibility}

// batchWorld builds a seeded world with a changelog that exercises every
// sharing tier: entries with identical (elements, at) signatures (full
// panel + factorization sharing), a same-elements entry at a different
// change time (selection sharing only), an entry on a different RNC's
// towers (no sharing), and the per-entry error paths — an invalid entry,
// an entry whose control selection finds no candidates (it covers every
// tower of its RNC), and an entry whose every KPI is unassessable (its
// pre-change window holds too few observations).
func batchWorld() (*netsim.Network, []*changelog.Change, SeriesProvider) {
	topo := netsim.DefaultTopologyConfig()
	topo.Seed = 17
	net := netsim.Build(topo)
	rncs := net.OfKind(netsim.RNC)
	studyA := net.Children(rncs[0])[:3]
	studyB := net.Children(rncs[1])[:3]
	at := epoch.Add(14 * 24 * time.Hour)
	changes := []*changelog.Change{
		{ID: "CHG-B1", Type: changelog.ConfigChange, Elements: studyA, At: at, TrueQuality: -1.5},
		{ID: "CHG-B2", Type: changelog.SoftwareUpgrade, Elements: studyA, At: at, TrueQuality: 0.8},
		{ID: "CHG-B3", Type: changelog.ConfigChange, Elements: studyA, At: at.Add(24 * time.Hour), TrueQuality: 0},
		{ID: "CHG-B4", Type: changelog.HardwareUpgrade, Elements: studyB, At: at, TrueQuality: -0.7},
		{ID: "CHG-B5", Type: changelog.ConfigChange, Elements: []string{"no-such-element"}, At: at},
		{ID: "CHG-B6", Type: changelog.ConfigChange, Elements: studyA, At: at, TrueQuality: -1.5},
		{ID: "CHG-B7", Type: changelog.ConfigChange, Elements: net.Children(rncs[2]), At: at},
		{ID: "CHG-B8", Type: changelog.ConfigChange, Elements: studyA, At: epoch.Add(24 * time.Hour)},
	}
	ix := timeseries.NewIndex(epoch, 6*time.Hour, 28*4)
	gcfg := gen.DefaultConfig(ix)
	gcfg.Seed = 23
	for _, c := range changes {
		if batchErrEntries[c.ID] {
			continue // per-entry errors: stay out of the world
		}
		gcfg.Effects = append(gcfg.Effects, c.Effect(net))
	}
	g := gen.New(net, gcfg)
	provider := ProviderFunc(func(id string, metric KPI) (Series, bool) {
		if net.Element(id) == nil {
			return Series{}, false
		}
		return g.Series(id, metric), true
	})
	return net, changes, provider
}

// batchErrEntries names the batchWorld entries that must fail per entry.
var batchErrEntries = map[string]bool{"CHG-B5": true, "CHG-B7": true, "CHG-B8": true}

func batchPipeline(workers int, provider SeriesProvider, net *netsim.Network, scope *Scope) *Pipeline {
	return &Pipeline{
		Network:          net,
		Provider:         provider,
		ControlPredicate: control.And(control.SameKind(), control.SameParent()),
		Assessor:         MustNewAssessor(Config{Seed: 9, Workers: workers}),
		Obs:              scope,
	}
}

// assertBatchMatchesSingles runs the changelog through AssessBatch, and
// each change through AssessChangeContext and through a one-entry
// AssessBatch carrying its own provider (the serve tier's shape for a
// single submission), on identically built pipelines, and requires
// byte-identical documents and identical error strings, entry by entry.
func assertBatchMatchesSingles(t *testing.T, workers int, wrap func(SeriesProvider) SeriesProvider) {
	t.Helper()
	ctx := context.Background()

	net, changes, provider := batchWorld()
	if wrap != nil {
		provider = wrap(provider)
	}
	batch, err := batchPipeline(workers, provider, net, nil).AssessChangelog(ctx, changes, batchKPIs, 14)
	if err != nil {
		t.Fatalf("workers=%d: AssessChangelog: %v", workers, err)
	}
	if len(batch.Results) != len(changes) || len(batch.Errors) != len(changes) {
		t.Fatalf("workers=%d: batch shape %d/%d results/errors, want %d", workers, len(batch.Results), len(batch.Errors), len(changes))
	}

	// Fresh world for the singles so the batch's provider-cache warm-up
	// cannot mask an ordering dependence.
	netS, changesS, providerS := batchWorld()
	if wrap != nil {
		providerS = wrap(providerS)
	}
	ps := batchPipeline(workers, providerS, netS, nil)
	pOne := batchPipeline(workers, nil, netS, nil)
	for i, c := range changesS {
		single, serr := ps.AssessChangeContext(ctx, c, batchKPIs, 14)
		one, err := pOne.AssessBatch(ctx, []BatchEntry{{Change: c, Provider: providerS}}, batchKPIs, 14)
		if err != nil {
			t.Fatalf("workers=%d entry %s: one-entry AssessBatch: %v", workers, c.ID, err)
		}
		if (serr == nil) != (one.Errors[0] == nil) {
			t.Fatalf("workers=%d entry %s: one-entry error mismatch: batch=%v single=%v", workers, c.ID, one.Errors[0], serr)
		}
		if serr != nil && one.Errors[0].Error() != serr.Error() {
			t.Fatalf("workers=%d entry %s: one-entry error text mismatch:\nbatch:  %s\nsingle: %s", workers, c.ID, one.Errors[0], serr)
		}
		if (serr == nil) != (batch.Errors[i] == nil) {
			t.Fatalf("workers=%d entry %s: error mismatch: batch=%v single=%v", workers, c.ID, batch.Errors[i], serr)
		}
		if serr != nil {
			if got, want := batch.Errors[i].Error(), serr.Error(); got != want {
				t.Fatalf("workers=%d entry %s: error text mismatch:\nbatch:  %s\nsingle: %s", workers, c.ID, got, want)
			}
			if batch.Results[i] != nil {
				t.Fatalf("workers=%d entry %s: errored entry has a result", workers, c.ID)
			}
			continue
		}
		got, err := MarshalAssessment(batch.Results[i])
		if err != nil {
			t.Fatalf("workers=%d entry %s: marshal batch: %v", workers, c.ID, err)
		}
		want, err := MarshalAssessment(single)
		if err != nil {
			t.Fatalf("workers=%d entry %s: marshal single: %v", workers, c.ID, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("workers=%d entry %s: batch and single documents differ:\nbatch:\n%s\nsingle:\n%s", workers, c.ID, got, want)
		}
		gotOne, err := MarshalAssessment(one.Results[0])
		if err != nil {
			t.Fatalf("workers=%d entry %s: marshal one-entry batch: %v", workers, c.ID, err)
		}
		if !bytes.Equal(gotOne, want) {
			t.Fatalf("workers=%d entry %s: one-entry batch and single documents differ:\nbatch:\n%s\nsingle:\n%s", workers, c.ID, gotOne, want)
		}
	}
}

func TestBatchEquivalence(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			assertBatchMatchesSingles(t, workers, nil)
		})
	}
}

func TestBatchEquivalenceUnderFaults(t *testing.T) {
	for _, spec := range []string{"gap=0.2,spike=0.2", "missing=0.3", "dropelem=0.4,reset=0.2"} {
		for _, workers := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", spec, workers), func(t *testing.T) {
				assertBatchMatchesSingles(t, workers, func(p SeriesProvider) SeriesProvider {
					fset, err := faults.Parse(spec, 99, 0.3)
					if err != nil {
						t.Fatal(err)
					}
					return faultyProvider(p, fset)
				})
			})
		}
	}
}

// TestBatchSharingCounters pins the amortization itself: the sharing
// stats and the litmus_batch_* registry counters must show panels and
// factorizations actually being reused — a batch that silently degrades
// to N per-change runs is a perf regression even though its bytes are
// right.
func TestBatchSharingCounters(t *testing.T) {
	net, changes, provider := batchWorld()
	reg := NewMetricsRegistry()
	scope := NewScope("batch-test", reg)
	p := batchPipeline(0, provider, net, scope)
	batch, err := p.AssessChangelog(context.Background(), changes, batchKPIs, 14)
	if err != nil {
		t.Fatal(err)
	}
	if batch.PanelsShared == 0 {
		t.Error("PanelsShared = 0, want > 0 (three entries share one signature)")
	}
	if batch.FactorizationsReused == 0 {
		t.Error("FactorizationsReused = 0, want > 0")
	}
	snap := reg.Snapshot()
	if got := snap["litmus_batch_entries_total"]; got != int64(len(changes)) {
		t.Errorf("litmus_batch_entries_total = %v, want %d", got, len(changes))
	}
	if got, _ := snap["litmus_batch_panels_shared_total"].(int64); got <= 0 {
		t.Errorf("litmus_batch_panels_shared_total = %v, want > 0", snap["litmus_batch_panels_shared_total"])
	}
	if got, _ := snap["litmus_batch_factorizations_reused_total"].(int64); got <= 0 {
		t.Errorf("litmus_batch_factorizations_reused_total = %v, want > 0", snap["litmus_batch_factorizations_reused_total"])
	}
	if got, _ := snap["litmus_batch_factorizations_reused_total"].(int64); got != batch.FactorizationsReused {
		t.Errorf("registry reuse counter %v != BatchAssessment.FactorizationsReused %d", got, batch.FactorizationsReused)
	}
	// Exact counts on batchWorld (50 iterations, no resampled draws):
	// CHG-B1/B2/B6 share one control panel per KPI, so 2 preparations of
	// 50 factorizations are each adopted by 3 members (300 reused); the
	// before-window factorizations are those 2 preparations plus CHG-B3's
	// and CHG-B4's own 2 × 50 each (300).
	if batch.FactorizationsReused != 300 {
		t.Errorf("FactorizationsReused = %d, want exactly 300", batch.FactorizationsReused)
	}
	if got := snap["litmus_before_factorizations_total"]; got != int64(300) {
		t.Errorf("litmus_before_factorizations_total = %v, want exactly 300", got)
	}
	// The failing entries must carry per-entry errors, not fail the batch.
	for i, c := range changes {
		if got := batch.Errors[i] != nil; got != batchErrEntries[c.ID] {
			t.Errorf("entry %s: error %v, want per-entry error %v", c.ID, batch.Errors[i], batchErrEntries[c.ID])
		}
	}
}
