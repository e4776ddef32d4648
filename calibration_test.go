package litmus

// Statistical-contract gate: on clean null worlds — the golden scenario
// with no planted effect — the assessor's false-positive rate must sit
// at its significance level. Element-level verdicts must flag at a rate
// within [α/2, 2α]; the majority vote over a change's elements must flag
// at most α. The power gate plants small and moderate effects in the
// same worlds and requires them detected. The world counts and seeds
// are fixed, so the rates are deterministic and a refactor that shifts
// the calibration fails here.

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

// calibrationWorlds assesses the golden-style change — three NodeBs
// under one RNC of topology seed 17, assessor seed 9, same-kind +
// same-parent controls — with quality planted at trueQuality, once per
// generator seed in [firstSeed, firstSeed+worlds), and hands each KPI's
// group result to visit.
func calibrationWorlds(t *testing.T, firstSeed int64, worlds int, trueQuality, alpha float64, visit func(GroupResult)) {
	t.Helper()
	topo := netsim.DefaultTopologyConfig()
	topo.Seed = 17
	net := netsim.Build(topo)
	rnc := net.OfKind(netsim.RNC)[0]
	change := &changelog.Change{
		ID: "CHG-NULL", Type: changelog.ConfigChange,
		Elements: net.Children(rnc)[:3], At: epoch.Add(14 * 24 * time.Hour),
		TrueQuality: trueQuality,
	}
	ix := timeseries.NewIndex(epoch, 6*time.Hour, 28*4)
	assessor := MustNewAssessor(Config{Seed: 9, Alpha: alpha})
	kpis := []KPI{kpi.VoiceRetainability, kpi.DataAccessibility}

	for w := 0; w < worlds; w++ {
		gcfg := gen.DefaultConfig(ix)
		gcfg.Seed = firstSeed + int64(w)
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
			t.Fatalf("world %d: %v", gcfg.Seed, err)
		}
		for _, gr := range res.PerKPI {
			visit(gr)
		}
	}
}

func TestNullWorldCalibration(t *testing.T) {
	const alpha = 0.05
	var elems, elemFlags, groups, groupFlags int
	calibrationWorlds(t, 1000, nullWorlds, 0, alpha, func(gr GroupResult) {
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
	})
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

// powerWorlds is how many planted worlds the power gate assesses per
// effect size.
const powerWorlds = 200

// TestPlantedEffectPower is the power half of the statistical contract:
// on the null gate's worlds with a quality change planted, element-level
// verdicts must detect the planted direction at ≥ 0.70 for a small
// effect (±0.15) and ≥ 0.99 for a moderate one (±0.4), and must never
// report the opposite direction.
func TestPlantedEffectPower(t *testing.T) {
	for _, tc := range []struct {
		quality, minPower float64
	}{
		{-0.4, 0.99}, {-0.15, 0.70}, {0.15, 0.70}, {0.4, 0.99},
	} {
		want, wrong := kpi.Degradation, kpi.Improvement
		if tc.quality > 0 {
			want, wrong = kpi.Improvement, kpi.Degradation
		}
		var elems, detected, misdirected int
		calibrationWorlds(t, 5000, powerWorlds, tc.quality, 0.05, func(gr GroupResult) {
			for _, e := range gr.PerElement {
				elems++
				switch e.Impact {
				case want:
					detected++
				case wrong:
					misdirected++
				}
			}
		})
		power := float64(detected) / float64(elems)
		t.Logf("quality %+.2f: element power %d/%d = %.4f, wrong direction %d", tc.quality, detected, elems, power, misdirected)
		if power < tc.minPower {
			t.Errorf("quality %+.2f: element power %.4f below %.2f", tc.quality, power, tc.minPower)
		}
		if misdirected > 0 {
			t.Errorf("quality %+.2f: %d element verdicts in the wrong direction", tc.quality, misdirected)
		}
	}
}
