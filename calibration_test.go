package litmus

// Statistical-contract gate: on clean null worlds — the golden scenario
// with no planted effect — the assessor's false-positive rate must sit
// at its significance level. Element-level verdicts must flag at a rate
// within [α/2, 2α]; the majority vote over a change's elements must flag
// at most α. The world count and seeds are fixed, so the rates are
// deterministic and a refactor that shifts the calibration fails here.

import (
	"context"
	"testing"
	"time"

	"repro/internal/changelog"
	"repro/internal/control"
	"repro/internal/gen"
	"repro/internal/kpi"
	"repro/internal/netsim"
	"repro/internal/timeseries"
)

// nullWorlds is how many clean worlds the gate assesses.
const nullWorlds = 300

func TestNullWorldCalibration(t *testing.T) {
	topo := netsim.DefaultTopologyConfig()
	topo.Seed = 17
	net := netsim.Build(topo)
	rnc := net.OfKind(netsim.RNC)[0]
	change := &changelog.Change{
		ID: "CHG-NULL", Type: changelog.ConfigChange,
		Elements: net.Children(rnc)[:3], At: epoch.Add(14 * 24 * time.Hour),
		TrueQuality: 0,
	}
	ix := timeseries.NewIndex(epoch, 6*time.Hour, 28*4)
	const alpha = 0.05
	assessor := MustNewAssessor(Config{Seed: 9, Alpha: alpha})
	kpis := []KPI{kpi.VoiceRetainability, kpi.DataAccessibility}

	var elems, elemFlags, groups, groupFlags int
	for w := 0; w < nullWorlds; w++ {
		gcfg := gen.DefaultConfig(ix)
		gcfg.Seed = int64(1000 + w)
		gcfg.Effects = []gen.Effect{change.Effect(net)}
		g := gen.New(net, gcfg)
		p := &Pipeline{
			Network: net,
			Provider: ProviderFunc(func(id string, metric KPI) (Series, bool) {
				return g.Series(id, metric), true
			}),
			ControlPredicate: control.And(control.SameKind(), control.SameParent()),
			Assessor:         assessor,
		}
		res, err := p.AssessChangeContext(context.Background(), change, kpis, 14)
		if err != nil {
			t.Fatalf("world %d: %v", w, err)
		}
		for _, gr := range res.PerKPI {
			groups++
			if gr.Overall != kpi.NoImpact {
				groupFlags++
			}
			for _, e := range gr.PerElement {
				elems++
				if e.Impact != kpi.NoImpact {
					elemFlags++
				}
			}
		}
	}
	elemFPR := float64(elemFlags) / float64(elems)
	groupFPR := float64(groupFlags) / float64(groups)
	t.Logf("%d worlds: element FPR %d/%d = %.4f, group FPR %d/%d = %.4f", nullWorlds, elemFlags, elems, elemFPR, groupFlags, groups, groupFPR)
	if elemFPR < alpha/2 || elemFPR > 2*alpha {
		t.Errorf("element-level FPR %.4f outside [α/2, 2α] = [%.3f, %.3f]", elemFPR, alpha/2, 2*alpha)
	}
	if groupFPR > alpha {
		t.Errorf("group-level FPR %.4f above α = %.3f", groupFPR, alpha)
	}
}
