package netsim

import (
	"fmt"
	"sort"
)

// Network is a collection of elements with parent/child adjacency — the
// topological structure the paper infers from daily configuration
// snapshots (§2.2) and uses for control-group selection (§3.3).
//
// A Network is read-only once constructed: only Build (and the Add calls
// of whoever assembles a network by hand) may write it or its elements.
// Every query method only reads, so one built Network may be shared by
// concurrent goroutines — the assessment service caches built networks
// across jobs on this contract. Code that needs a modified topology
// builds a new Network instead of writing to a shared one.
type Network struct {
	elements map[string]*Element
	order    []string            // insertion order, for deterministic iteration
	children map[string][]string // parent ID → child IDs
}

// NewNetwork returns an empty network.
func NewNetwork() *Network {
	return &Network{
		elements: make(map[string]*Element),
		children: make(map[string][]string),
	}
}

// Add inserts an element. It panics on a duplicate ID or (for non-root
// elements) an unknown parent, both of which indicate broken topology
// construction.
func (n *Network) Add(e *Element) {
	if e.ID == "" {
		panic("netsim: element with empty ID")
	}
	if _, dup := n.elements[e.ID]; dup {
		panic(fmt.Sprintf("netsim: duplicate element ID %q", e.ID))
	}
	if e.Parent != "" {
		if _, ok := n.elements[e.Parent]; !ok {
			panic(fmt.Sprintf("netsim: element %q references unknown parent %q", e.ID, e.Parent))
		}
	}
	n.elements[e.ID] = e
	n.order = append(n.order, e.ID)
	if e.Parent != "" {
		n.children[e.Parent] = append(n.children[e.Parent], e.ID)
	}
}

// Element returns the element with the given ID, or nil if absent.
func (n *Network) Element(id string) *Element { return n.elements[id] }

// MustElement returns the element with the given ID, panicking if absent.
func (n *Network) MustElement(id string) *Element {
	e := n.elements[id]
	if e == nil {
		panic(fmt.Sprintf("netsim: unknown element %q", id))
	}
	return e
}

// Len returns the number of elements.
func (n *Network) Len() int { return len(n.order) }

// IDs returns all element IDs in insertion order. The slice is a copy.
func (n *Network) IDs() []string {
	out := make([]string, len(n.order))
	copy(out, n.order)
	return out
}

// Children returns the IDs of the direct children of id, in insertion
// order. The slice is a copy.
func (n *Network) Children(id string) []string {
	kids := n.children[id]
	out := make([]string, len(kids))
	copy(out, kids)
	return out
}

// Descendants returns all transitive children of id, in breadth-first
// order — the "causal impact scope" of a change at an upstream element
// (paper §2.2).
func (n *Network) Descendants(id string) []string {
	var out []string
	queue := n.Children(id)
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		out = append(out, cur)
		queue = append(queue, n.children[cur]...)
	}
	return out
}

// Ancestors returns the chain of parents of id from nearest to root.
func (n *Network) Ancestors(id string) []string {
	var out []string
	e := n.elements[id]
	for e != nil && e.Parent != "" {
		out = append(out, e.Parent)
		e = n.elements[e.Parent]
	}
	return out
}

// OfKind returns the IDs of all elements of the given kind, in insertion
// order.
func (n *Network) OfKind(k Kind) []string {
	var out []string
	for _, id := range n.order {
		if n.elements[id].Kind == k {
			out = append(out, id)
		}
	}
	return out
}

// InRegion returns the IDs of all elements in the given region, in
// insertion order.
func (n *Network) InRegion(r Region) []string {
	var out []string
	for _, id := range n.order {
		if n.elements[id].Region == r {
			out = append(out, id)
		}
	}
	return out
}

// Filter returns the IDs of elements satisfying pred, in insertion order.
func (n *Network) Filter(pred func(*Element) bool) []string {
	var out []string
	for _, id := range n.order {
		if pred(n.elements[id]) {
			out = append(out, id)
		}
	}
	return out
}

// WithinKm returns the IDs of elements within radius km of the given
// element (excluding itself), ordered by ascending distance with ID
// tie-break.
func (n *Network) WithinKm(id string, radius float64) []string {
	center := n.MustElement(id)
	type cand struct {
		id string
		d  float64
	}
	var cands []cand
	for _, other := range n.order {
		if other == id {
			continue
		}
		d := DistanceKm(center.Location, n.elements[other].Location)
		if d <= radius {
			cands = append(cands, cand{other, d})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].d != cands[j].d {
			return cands[i].d < cands[j].d
		}
		return cands[i].id < cands[j].id
	})
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = c.id
	}
	return out
}

// Siblings returns the IDs of elements sharing id's parent (excluding id
// itself) — e.g. NodeBs under the same RNC, the paper's topological
// control-group predicate for GSM/UMTS (§4.2).
func (n *Network) Siblings(id string) []string {
	e := n.MustElement(id)
	if e.Parent == "" {
		return nil
	}
	var out []string
	for _, kid := range n.children[e.Parent] {
		if kid != id {
			out = append(out, kid)
		}
	}
	return out
}

// CouplingWeights models shared-load interference around a change at id:
// for every sibling (the topological control-group predicate), the
// fraction of the change's latent quality effect that bleeds into that
// sibling through shared congestion — users and traffic displaced by the
// change redistribute onto nearby co-parented towers, so a study-group
// injection leaks into exactly the elements the control regression
// treats as independent ("Unbiased Experiments in Congested Networks":
// interference makes the control group absorb part of the treatment).
//
// strength is the fraction received by a hypothetical zero-distance
// sibling; the fraction decays gently with geographic distance on the
// scale of twice the mean sibling distance, w = strength · d0/(d0+d)
// with d0 = 2·mean — towers sharing an RNC also share backhaul and
// overlapping coverage, so even the far siblings keep most of the
// coupling. Weights are clamped to [0, 1] and the result is
// deterministic in the topology. Siblings at unknown coordinates
// (mean distance 0) all receive the full clamped strength.
func (n *Network) CouplingWeights(id string, strength float64) map[string]float64 {
	sibs := n.Siblings(id)
	if len(sibs) == 0 || strength == 0 {
		return nil
	}
	if strength < 0 {
		strength = 0
	}
	if strength > 1 {
		strength = 1
	}
	center := n.MustElement(id)
	dists := make([]float64, len(sibs))
	var mean float64
	for i, sid := range sibs {
		dists[i] = DistanceKm(center.Location, n.elements[sid].Location)
		mean += dists[i]
	}
	mean /= float64(len(sibs))
	out := make(map[string]float64, len(sibs))
	for i, sid := range sibs {
		w := strength
		if mean > 0 {
			d0 := 2 * mean
			w = strength * d0 / (d0 + dists[i])
		}
		out[sid] = w
	}
	return out
}

// SameZip returns the IDs of same-kind elements sharing id's zip code
// (excluding id) — the paper's geographic predicate for LTE (§4.2).
func (n *Network) SameZip(id string) []string {
	e := n.MustElement(id)
	var out []string
	for _, other := range n.order {
		oe := n.elements[other]
		if other != id && oe.ZipCode == e.ZipCode && oe.Kind == e.Kind {
			out = append(out, other)
		}
	}
	return out
}

// Validate checks structural invariants: every parent exists, no cycles,
// towers parent to controllers, controllers to core elements. It returns
// a descriptive error on the first violation.
func (n *Network) Validate() error {
	for _, id := range n.order {
		e := n.elements[id]
		if e.Parent == "" {
			continue
		}
		p := n.elements[e.Parent]
		if p == nil {
			return fmt.Errorf("netsim: element %q has unknown parent %q", id, e.Parent)
		}
		switch {
		case e.Kind == NodeB || e.Kind == BTS:
			if !p.Kind.IsController() {
				return fmt.Errorf("netsim: tower %q parented to non-controller %q (%s)", id, p.ID, p.Kind)
			}
		case e.Kind == Cell:
			if !p.Kind.IsTower() {
				return fmt.Errorf("netsim: cell %q parented to non-tower %q (%s)", id, p.ID, p.Kind)
			}
		case e.Kind == RNC || e.Kind == BSC || e.Kind == ENodeB:
			if !p.Kind.IsCore() {
				return fmt.Errorf("netsim: controller %q parented to non-core %q (%s)", id, p.ID, p.Kind)
			}
		}
		// Cycle check via ancestor walk with a bound.
		seen := map[string]bool{id: true}
		for cur := e.Parent; cur != ""; {
			if seen[cur] {
				return fmt.Errorf("netsim: parent cycle involving %q", cur)
			}
			seen[cur] = true
			next := n.elements[cur]
			if next == nil {
				break
			}
			cur = next.Parent
		}
	}
	return nil
}
