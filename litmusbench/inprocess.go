package main

// In-process construction of a request's world and pipeline, mirroring
// the service's scenario construction (the golden fixture's sequence),
// so an in-process assessment of a request marshals to the exact bytes
// the service returns for it.

import (
	"fmt"
	"time"

	"repro/internal/changelog"
	"repro/internal/control"
	"repro/internal/gen"
	"repro/internal/kpi"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/serve"

	litmus "repro"
)

// topoConfig is the network every benchmark request names.
func topoConfig() netsim.TopologyConfig {
	cfg := netsim.DefaultTopologyConfig()
	cfg.Seed = topoSeed
	return cfg
}

// changeOf materializes a change spec the way the service does.
func changeOf(cs serve.ChangeSpec) (*changelog.Change, error) {
	typ, err := changelog.ParseType(cs.Type)
	if err != nil {
		return nil, err
	}
	at, err := time.Parse(time.RFC3339, cs.At)
	if err != nil {
		return nil, fmt.Errorf("change %s: %w", cs.ID, err)
	}
	return &changelog.Change{
		ID:                     cs.ID,
		Type:                   typ,
		Description:            cs.Description,
		Elements:               cs.Elements,
		At:                     at.UTC(),
		PropagateToDescendants: cs.PropagateToDescendants,
		TrueQuality:            cs.TrueQuality,
		TrueLoadMult:           cs.TrueLoadMult,
	}, nil
}

// kpis parses the benchmark's KPI list in the service's canonical
// (sorted) order.
func kpis() ([]kpi.KPI, error) {
	var out []kpi.KPI
	for _, name := range []string{"data-accessibility", "voice-retainability"} {
		k, err := kpi.Parse(name)
		if err != nil {
			return nil, err
		}
		out = append(out, k)
	}
	return out, nil
}

// generator returns a fresh series generator for the world with the
// given effects. Generators cache series, so every timed assessment gets
// its own.
func generator(net *netsim.Network, seed int64, effects ...gen.Effect) *gen.Generator {
	cfg := gen.DefaultConfig(litmus.NewIndex(indexStart, indexStep, indexPoints))
	cfg.Seed = seed
	cfg.Effects = effects
	return gen.New(net, cfg)
}

// genProvider adapts a generator to the pipeline's provider interface.
func genProvider(net *netsim.Network, g *gen.Generator) litmus.SeriesProvider {
	return litmus.ProviderFunc(func(id string, metric kpi.KPI) (litmus.Series, bool) {
		if net.Element(id) == nil {
			return litmus.Series{}, false
		}
		return g.Series(id, metric), true
	})
}

// predicate is the benchmark's control predicate (same-kind AND
// same-parent).
func predicate() litmus.Predicate {
	return control.And(control.SameKind(), control.SameParent())
}

// pipeline wires an assessment pipeline the way the service does.
func pipeline(net *netsim.Network, p litmus.SeriesProvider, scope *obs.Scope) *litmus.Pipeline {
	return &litmus.Pipeline{
		Network:          net,
		Provider:         p,
		Assessor:         litmus.MustNewAssessor(litmus.Config{Seed: assessSeed}),
		ControlPredicate: predicate(),
		Obs:              scope,
	}
}

// entryProviders builds the per-entry providers of a changelog the way the
// service's batch path does: elements inside an entry's impact scope
// read a generator carrying only that entry's effect, everything else
// reads one memoized base world.
func entryProviders(net *netsim.Network, seed int64, changes []*changelog.Change, wrap func(litmus.SeriesProvider) litmus.SeriesProvider) []litmus.BatchEntry {
	base := generator(net, seed)
	type key struct{ id, metric string }
	memo := map[key]litmus.Series{}
	baseSeries := func(id string, metric kpi.KPI) litmus.Series {
		k := key{id, metric.String()}
		s, ok := memo[k]
		if !ok {
			s = base.Series(id, metric)
			memo[k] = s
		}
		return s
	}
	entries := make([]litmus.BatchEntry, len(changes))
	for i, ch := range changes {
		eg := generator(net, seed, ch.Effect(net))
		inScope := map[string]bool{}
		for _, id := range ch.ImpactScope(net) {
			inScope[id] = true
		}
		var p litmus.SeriesProvider = litmus.ProviderFunc(func(id string, metric kpi.KPI) (litmus.Series, bool) {
			if net.Element(id) == nil {
				return litmus.Series{}, false
			}
			if inScope[id] {
				return eg.Series(id, metric), true
			}
			return baseSeries(id, metric), true
		})
		if wrap != nil {
			p = wrap(p)
		}
		entries[i] = litmus.BatchEntry{Change: ch, Provider: p}
	}
	return entries
}
