package serve

// Topology cache. A request's network is a pure function of its
// canonical TopologySpec, so the process builds each distinct topology
// once and shares the built *netsim.Network across every job that asks
// for it, instead of running netsim.Build per job. The cache is
// process-wide, like core's sample table: servers that run side by side
// in one process (tests, an in-process cluster) hold one copy of each
// network, not one per server.
//
// Sharing is safe because a Network is read-only after Build (see the
// netsim.Network contract): jobs only query it, so concurrent jobs on
// one cached network read the same bytes a fresh build would hold, and
// results are byte-identical either way.
//
// The cache is bounded by the total element count of the networks it
// holds, not by entry count: one capped request can ask for ~150k
// elements while the default topology has ~2k. A network larger than
// the bound is built uncached; otherwise inserting evicts the least
// recently used networks until the total fits. Two concurrent misses on
// one spec may both build; the first insert wins and the loser's copy is
// dropped.

import (
	"container/list"
	"sync"

	"repro/internal/netsim"
)

// maxCachedElements bounds the topology cache: 2^16 elements (~20 MB)
// hold about thirty default-size networks.
const maxCachedElements = 1 << 16

// topologies is the process-wide topology cache.
var topologies = newTopologyCache()

// topologyCache is an element-bounded LRU of built networks keyed by
// canonical topology spec. Safe for concurrent use.
type topologyCache struct {
	mu       sync.Mutex
	elements int        // total elements of the cached networks
	ll       *list.List // of *topologyEntry; front = most recently used
	items    map[TopologySpec]*list.Element
}

type topologyEntry struct {
	spec TopologySpec
	net  *netsim.Network
}

func newTopologyCache() *topologyCache {
	return &topologyCache{ll: list.New(), items: make(map[TopologySpec]*list.Element)}
}

// network returns the built network for the compiled request's
// topology, building and caching it on a miss. Callers must not modify
// the returned network.
func (c *topologyCache) network(req *compiledRequest) *netsim.Network {
	spec := *req.norm.Topology
	if net := c.get(spec); net != nil {
		return net
	}
	net := netsim.Build(req.topo)
	if net.Len() > maxCachedElements {
		return net
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[spec]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*topologyEntry).net // a concurrent miss inserted first
	}
	c.items[spec] = c.ll.PushFront(&topologyEntry{spec: spec, net: net})
	c.elements += net.Len()
	for c.elements > maxCachedElements {
		oldest := c.ll.Remove(c.ll.Back()).(*topologyEntry)
		delete(c.items, oldest.spec)
		c.elements -= oldest.net.Len()
	}
	return net
}

// get returns the cached network for spec, refreshing its recency, or
// nil on a miss.
func (c *topologyCache) get(spec TopologySpec) *netsim.Network {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[spec]
	if !ok {
		return nil
	}
	c.ll.MoveToFront(el)
	return el.Value.(*topologyEntry).net
}
