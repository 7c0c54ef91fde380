package graph

import (
	"net/netip"

	"beholder/internal/alias"
)

// RouterID identifies a router-level node: either a detected aliased
// prefix (one middlebox answering for the whole region) or a single
// interface address nothing folded.
type RouterID struct {
	// Aliased reports that the router is a collapsed aliased prefix.
	Aliased bool
	// Prefix is the covering aliased prefix when Aliased.
	Prefix netip.Prefix
	// Addr is the interface address when not Aliased.
	Addr netip.Addr
}

// String renders the router identity (prefix or address form).
func (r RouterID) String() string {
	if r.Aliased {
		return r.Prefix.String()
	}
	return r.Addr.String()
}

// less orders router identities canonically: by representative address,
// with prefixes breaking ties ahead of bare addresses, shorter first.
func (r RouterID) less(o RouterID) bool {
	ra, oa := r.Addr, o.Addr
	if r.Aliased {
		ra = r.Prefix.Addr()
	}
	if o.Aliased {
		oa = o.Prefix.Addr()
	}
	if c := ra.Compare(oa); c != 0 {
		return c < 0
	}
	if r.Aliased != o.Aliased {
		return r.Aliased
	}
	if r.Aliased && o.Aliased {
		return r.Prefix.Bits() < o.Prefix.Bits()
	}
	return false
}

// RouterEdge is one router-level edge. The interface-level TTL gap does
// not survive the collapse (a router pair may be linked at many gaps);
// protocol and vantage attribution do.
type RouterEdge struct {
	Src, Dst RouterID
	Proto    uint8
	V        uint8
}

// RouterNode aggregates the interfaces folded into one router.
type RouterNode struct {
	Flags      NodeFlags
	Interfaces int // interface-level nodes folded in
}

// RouterGraph is the router-level graph a collapse pass produces.
type RouterGraph struct {
	vantages []string
	nodes    map[RouterID]RouterNode
	edges    map[RouterEdge]int64

	// Folded counts interface nodes absorbed into multi-interface
	// routers (NumNodes of the source graph minus router count).
	Folded int
	// IntraRouter counts edge traversals that collapsed into
	// self-loops (links between two interfaces of one router) and were
	// dropped.
	IntraRouter int64
}

// Resolver maps an interface address to its covering aliased prefix.
// alias.Store.Covering satisfies it; any alias-resolution source with
// prefix granularity can stand in.
type Resolver func(netip.Addr) (netip.Prefix, bool)

// StoreResolver adapts a detected-alias store into a Resolver; a nil
// store resolves nothing (the collapse is then the identity).
func StoreResolver(st *alias.Store) Resolver {
	if st == nil {
		return func(netip.Addr) (netip.Prefix, bool) { return netip.Prefix{}, false }
	}
	return st.Covering
}

// routerOf folds one address through the resolver.
func routerOf(a netip.Addr, resolve Resolver) RouterID {
	if p, ok := resolve(a); ok {
		return RouterID{Aliased: true, Prefix: p}
	}
	return RouterID{Addr: a}
}

// Collapse folds interfaces into router nodes using alias-resolution
// results: every interface under one detected aliased prefix becomes a
// single router, edges re-key accordingly (multi-edge counts add), and
// links between two interfaces of the same router drop out as
// intra-router wiring. The result is a pure function of the graph and
// the resolver — deterministic however the graph was built or merged.
func (g *Graph) Collapse(resolve Resolver) *RouterGraph {
	rg := &RouterGraph{
		vantages: append([]string(nil), g.vantages...),
		nodes:    make(map[RouterID]RouterNode),
		edges:    make(map[RouterEdge]int64),
	}
	// One resolver call per address, whatever its edge degree; an id
	// that is no node is never an edge endpoint either.
	routers := make([]RouterID, len(g.flags))
	for id, fl := range g.flags {
		if fl == 0 {
			continue
		}
		rid := routerOf(g.tab.Addr(uint32(id)), resolve)
		routers[id] = rid
		n := rg.nodes[rid]
		n.Flags |= fl
		n.Interfaces++
		rg.nodes[rid] = n
	}
	rg.Folded = g.nNodes - len(rg.nodes)
	for e, n := range g.derive().edges {
		src, dst := routers[e.src], routers[e.dst]
		if src == dst {
			rg.IntraRouter += n
			continue
		}
		rg.edges[RouterEdge{Src: src, Dst: dst, Proto: e.proto, V: e.v}] += n
	}
	return rg
}

// NumRouters returns the router-level node count.
func (rg *RouterGraph) NumRouters() int { return len(rg.nodes) }

// NumEdges returns the count of distinct router-level annotated edges.
func (rg *RouterGraph) NumEdges() int { return len(rg.edges) }

// ForEachEdge calls fn for every router-level edge with its
// multiplicity, in unspecified order.
func (rg *RouterGraph) ForEachEdge(fn func(e RouterEdge, n int64)) {
	for e, n := range rg.edges {
		fn(e, n)
	}
}

// VantageName resolves an edge's vantage index.
func (rg *RouterGraph) VantageName(v uint8) string {
	if int(v) < len(rg.vantages) {
		return rg.vantages[v]
	}
	return ""
}
