package graph

// referenceGraph is the address-keyed topology builder this package
// shipped before addresses were interned into dense ids, kept verbatim
// (type names aside) as the reference the property test holds Graph to:
// node, path and edge maps keyed by netip.Addr-bearing structs, Merge
// re-inserting every hop, export straight off the maps.

import (
	"fmt"
	"io"
	"net/netip"
	"sort"
	"strconv"

	"beholder/internal/bgp"
	"beholder/internal/probe"
	"beholder/internal/wire"
)

// refPathKey identifies one refPath skeleton: what one vantage learned about
// one target under one transport. Keying by vantage and protocol keeps
// differing views of the same target apart, which is what makes Merge
// serve both shard folding (same key space, disjoint TTLs) and
// cross-vantage union (disjoint key spaces).
type refPathKey struct {
	v      uint8
	proto  uint8
	target netip.Addr
}

// refHop is one responsive refHop of a refPath skeleton.
type refHop struct {
	ttl  uint8
	addr netip.Addr
}

// refPath is the per-(vantage, proto, target) skeleton edges derive from.
type refPath struct {
	key     refPathKey
	hops    []refHop // sorted by TTL, unique TTLs
	reached bool
}

// Graph is a deterministic interface-level directed multigraph under
// incremental construction. It implements probe.Observer; a Graph is
// owned by a single prober goroutine while its campaign runs, and
// shard/vantage subgraphs are folded afterwards with Merge.
type referenceGraph struct {
	vantages []string
	self     uint8 // vantage index OnReply attributes replies to

	nodes map[netip.Addr]NodeFlags
	paths map[refPathKey]*refPath
	edges map[Edge]int64

	// traversals counts edge insertions net of removals: the sum of all
	// multi-edge counts, i.e. refPath-hops contributing topology.
	traversals int64

	// lastKey/lastPath memoize the most recent refPath touched: replies
	// cluster by target (fill follow-ups, sequential probing), so the
	// memo removes the map lookup for the common repeat case.
	lastKey  refPathKey
	lastPath *refPath

	// block slab-allocates refPath structs in fixed pieces and hopSlab
	// pre-backs their refHop lists, keeping the observer's steady-state
	// allocation rate near zero on the packet fast refPath.
	block   []refPath
	hopSlab []refHop
}

// New creates an empty graph whose OnReply attributes replies to the
// named vantage.
func newReference(vantage string) *referenceGraph {
	g := newReferenceEmpty()
	g.self = g.vantageIndex(vantage)
	return g
}

func newReferenceEmpty() *referenceGraph {
	return &referenceGraph{
		nodes: make(map[netip.Addr]NodeFlags),
		paths: make(map[refPathKey]*refPath),
		edges: make(map[Edge]int64),
	}
}

// vantageIndex interns a vantage name.
func (g *referenceGraph) vantageIndex(name string) uint8 {
	for i, v := range g.vantages {
		if v == name {
			return uint8(i)
		}
	}
	if len(g.vantages) >= 256 {
		panic("graph: more than 256 vantages in one graph")
	}
	g.vantages = append(g.vantages, name)
	return uint8(len(g.vantages) - 1)
}

// Vantages returns the graph's vantage names, sorted.
func (g *referenceGraph) Vantages() []string {
	out := append([]string(nil), g.vantages...)
	sort.Strings(out)
	return out
}

// OnReply folds one parsed probe reply into the graph; it is the
// streaming observer hook probers call after storing the reply. The
// rules mirror probe.Store.Add exactly — first answer per (target, TTL)
// wins, TE sources become interface nodes even when the quotation was
// too mangled to place them on a refPath — so the graph's node set always
// equals the store's interface set plus the reached destinations.
func (g *referenceGraph) OnReply(r probe.Reply) {
	switch r.Kind {
	case probe.KindTimeExceeded:
		g.nodes[r.From] |= NodeInterface
		if r.Target.IsValid() && r.TTL != 0 {
			g.insertHop(refPathKey{g.self, r.Proto, r.Target}, r.TTL, r.From, false)
		}
	case probe.KindEchoReply, probe.KindTCPRst:
		g.reach(refPathKey{g.self, r.Proto, r.Target})
	case probe.KindDestUnreach:
		if r.Code == 4 && r.Target.IsValid() { // port unreachable: from the destination
			g.reach(refPathKey{g.self, r.Proto, r.Target})
		}
	}
}

// getPath returns (creating if needed) the skeleton for k.
func (g *referenceGraph) getPath(k refPathKey) *refPath {
	if g.lastPath != nil && g.lastKey == k {
		return g.lastPath
	}
	p := g.paths[k]
	if p == nil {
		if len(g.block) == 0 {
			g.block = make([]refPath, 64)
		}
		p = &g.block[0]
		g.block = g.block[1:]
		p.key = k
		if len(g.hopSlab) < 16 {
			g.hopSlab = make([]refHop, 16*128)
		}
		p.hops = g.hopSlab[:0:16]
		g.hopSlab = g.hopSlab[16:]
		g.paths[k] = p
	}
	g.lastKey, g.lastPath = k, p
	return p
}

// insertHop places (ttl, addr) on k's skeleton and restores the edge
// invariant around it. tiebreak selects the TTL-collision policy:
// false keeps the refHop already present (Store.Add's first-answer rule —
// the streaming refPath, where "first" is well defined), true keeps the
// lexicographically smaller address (Merge's commutative rule, which
// makes merging order-independent even for overlapping ad-hoc merges —
// campaign shards never collide: their (target × TTL) slices are
// disjoint).
func (g *referenceGraph) insertHop(k refPathKey, ttl uint8, addr netip.Addr, tiebreak bool) {
	p := g.getPath(k)
	// Binary search for the insertion point; paths are short (≤ the TTL
	// range), so this is a handful of comparisons.
	lo, hi := 0, len(p.hops)
	for lo < hi {
		mid := (lo + hi) / 2
		if p.hops[mid].ttl < ttl {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(p.hops) && p.hops[lo].ttl == ttl {
		old := p.hops[lo].addr
		if !tiebreak || old == addr || old.Compare(addr) <= 0 {
			return
		}
		g.replaceHop(p, lo, addr)
		return
	}
	g.nodes[addr] |= NodeInterface
	p.hops = append(p.hops, refHop{})
	copy(p.hops[lo+1:], p.hops[lo:])
	p.hops[lo] = refHop{ttl: ttl, addr: addr}

	var pred, succ *refHop
	if lo > 0 {
		pred = &p.hops[lo-1]
	}
	if lo+1 < len(p.hops) {
		succ = &p.hops[lo+1]
	}
	switch {
	case pred != nil && succ != nil:
		// Interval split: the spanning edge becomes two sub-edges.
		g.edgeDelta(pred.addr, succ.addr, succ.ttl-pred.ttl, k, -1)
		g.edgeDelta(pred.addr, addr, ttl-pred.ttl, k, +1)
		g.edgeDelta(addr, succ.addr, succ.ttl-ttl, k, +1)
	case pred != nil:
		// New last refHop: extend the refPath, and re-anchor the destination
		// edge if the target already answered.
		g.edgeDelta(pred.addr, addr, ttl-pred.ttl, k, +1)
		if p.reached {
			g.edgeDelta(pred.addr, k.target, DestGap, k, -1)
			g.edgeDelta(addr, k.target, DestGap, k, +1)
		}
	case succ != nil:
		g.edgeDelta(addr, succ.addr, succ.ttl-ttl, k, +1)
	default:
		// First refHop of the refPath; the destination edge, if any, anchors
		// here.
		if p.reached {
			g.edgeDelta(addr, k.target, DestGap, k, +1)
		}
	}
}

// replaceHop swaps the address at position i for a tie-break winner and
// repairs the adjacent edges.
func (g *referenceGraph) replaceHop(p *refPath, i int, addr netip.Addr) {
	k := p.key
	old := p.hops[i]
	g.nodes[addr] |= NodeInterface
	if i > 0 {
		pred := p.hops[i-1]
		g.edgeDelta(pred.addr, old.addr, old.ttl-pred.ttl, k, -1)
		g.edgeDelta(pred.addr, addr, old.ttl-pred.ttl, k, +1)
	}
	if i+1 < len(p.hops) {
		succ := p.hops[i+1]
		g.edgeDelta(old.addr, succ.addr, succ.ttl-old.ttl, k, -1)
		g.edgeDelta(addr, succ.addr, succ.ttl-old.ttl, k, +1)
	} else if p.reached {
		g.edgeDelta(old.addr, k.target, DestGap, k, -1)
		g.edgeDelta(addr, k.target, DestGap, k, +1)
	}
	p.hops[i].addr = addr
	// The displaced address may still be an interface via other paths;
	// its node entry stays — interface discovery is monotone.
}

// reach records that k's target responded itself, adding the periphery
// node and, once a last refHop exists, the destination edge.
func (g *referenceGraph) reach(k refPathKey) {
	p := g.getPath(k)
	if p.reached {
		return
	}
	p.reached = true
	g.nodes[k.target] |= NodeDest
	if n := len(p.hops); n > 0 {
		g.edgeDelta(p.hops[n-1].addr, k.target, DestGap, k, +1)
	}
}

// edgeDelta adjusts one multi-edge count, dropping zeroed entries so
// the edge map always holds exactly the live multiset.
func (g *referenceGraph) edgeDelta(src, dst netip.Addr, gap uint8, k refPathKey, d int64) {
	e := Edge{Src: src, Dst: dst, Gap: gap, Proto: k.proto, V: k.v}
	n := g.edges[e] + d
	if n <= 0 {
		delete(g.edges, e)
	} else {
		g.edges[e] = n
	}
	g.traversals += d
}

// Merge folds o into g (o is not modified). Same-vantage refPath skeletons
// union refHop sets (commutative tie-break on TTL collisions, which
// disjoint campaign shards never produce) and OR reached flags; edges
// re-derive through the same incremental maintenance, so the merged
// edge multiset is the pure function of the merged skeletons —
// identical however subgraphs are grouped or ordered.
func (g *referenceGraph) Merge(o *referenceGraph) {
	if o == nil || g == o {
		return
	}
	var vmap [256]uint8
	for i, name := range o.vantages {
		vmap[i] = g.vantageIndex(name)
	}
	for a, fl := range o.nodes {
		g.nodes[a] |= fl
	}
	for k, p := range o.paths {
		nk := refPathKey{v: vmap[k.v], proto: k.proto, target: k.target}
		for _, h := range p.hops {
			g.insertHop(nk, h.ttl, h.addr, true)
		}
		if p.reached {
			g.reach(nk)
		}
	}
}

// VantageName resolves an edge's vantage index.
func (g *referenceGraph) VantageName(v uint8) string {
	if int(v) < len(g.vantages) {
		return g.vantages[v]
	}
	return ""
}

// sortedNodes returns the node addresses in canonical (address) order.
func (g *referenceGraph) sortedNodes() []netip.Addr {
	out := make([]netip.Addr, 0, len(g.nodes))
	for a := range g.nodes {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// sortedEdges returns the edges in canonical order: by source, then
// destination, gap, protocol, and vantage *name* — never by vantage
// index, so graphs merged in different orders export byte-identically.
func (g *referenceGraph) sortedEdges() []Edge {
	out := make([]Edge, 0, len(g.edges))
	for e := range g.edges {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if c := a.Src.Compare(b.Src); c != 0 {
			return c < 0
		}
		if c := a.Dst.Compare(b.Dst); c != 0 {
			return c < 0
		}
		if a.Gap != b.Gap {
			return a.Gap < b.Gap
		}
		if a.Proto != b.Proto {
			return a.Proto < b.Proto
		}
		return g.VantageName(a.V) < g.VantageName(b.V)
	})
	return out
}

// WriteNDJSON emits the graph in canonical NDJSON: one header line,
// then node lines in address order, then edge lines in canonical edge
// order. The byte stream is a pure function of the graph's topology
// (and tbl), so two graphs built from the same campaign — at any shard
// count, plan-cache setting, or merge order — serialize identically;
// determinism tests diff these bytes. tbl, when non-nil, annotates
// nodes and edges with origin ASNs.
func (g *referenceGraph) WriteNDJSON(w io.Writer, tbl *bgp.Table) error {
	vjson := quoteList(g.Vantages())
	if _, err := fmt.Fprintf(w, `{"graph":{"vantages":%s,"nodes":%d,"edges":%d,"paths":%d,"traversals":%d}}`+"\n",
		vjson, len(g.nodes), len(g.edges), len(g.paths), g.traversals); err != nil {
		return err
	}
	for _, a := range g.sortedNodes() {
		fl := g.nodes[a]
		asn := originOf(tbl, a)
		if _, err := fmt.Fprintf(w, `{"node":{"addr":%q,"iface":%t,"dest":%t,"asn":%d}}`+"\n",
			a, fl&NodeInterface != 0, fl&NodeDest != 0, asn); err != nil {
			return err
		}
	}
	for _, e := range g.sortedEdges() {
		if _, err := fmt.Fprintf(w, `{"edge":{"src":%q,"dst":%q,"gap":%d,"proto":%q,"vantage":%q,"srcAsn":%d,"dstAsn":%d,"n":%d}}`+"\n",
			e.Src, e.Dst, e.Gap, wire.TransportName(e.Proto), g.VantageName(e.V),
			originOf(tbl, e.Src), originOf(tbl, e.Dst), g.edges[e]); err != nil {
			return err
		}
	}
	return nil
}

// WriteDOT emits the graph in Graphviz DOT form, in the same canonical
// order as WriteNDJSON. Destination (periphery) nodes render as boxes;
// edges carry their TTL gap and multiplicity, with destination edges
// dashed. tbl, when non-nil, adds origin ASNs to node labels.
func (g *referenceGraph) WriteDOT(w io.Writer, tbl *bgp.Table) error {
	if _, err := fmt.Fprint(w, "digraph topology {\n  rankdir=LR;\n  node [shape=ellipse, fontsize=10];\n"); err != nil {
		return err
	}
	for _, a := range g.sortedNodes() {
		fl := g.nodes[a]
		attrs := ""
		if fl&NodeDest != 0 {
			attrs = ", shape=box"
		}
		label := a.String()
		if asn := originOf(tbl, a); asn != 0 {
			label += "\\nAS" + strconv.FormatUint(uint64(asn), 10)
		}
		// label holds a DOT \n escape; %q would double the backslash, so
		// quote manually (addresses and AS numbers need no escaping).
		if _, err := fmt.Fprintf(w, "  %q [label=\"%s\"%s];\n", a, label, attrs); err != nil {
			return err
		}
	}
	for _, e := range g.sortedEdges() {
		style := ""
		if e.Gap == DestGap {
			style = ", style=dashed"
		}
		if _, err := fmt.Fprintf(w, "  %q -> %q [label=\"gap=%d n=%d\"%s];\n",
			e.Src, e.Dst, e.Gap, g.edges[e], style); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}

// Collapse folds interfaces into router nodes using alias-resolution
// results: every interface under one detected aliased prefix becomes a
// single router, edges re-key accordingly (multi-edge counts add), and
// links between two interfaces of the same router drop out as
// intra-router wiring. The result is a pure function of the graph and
// the resolver — deterministic however the graph was built or merged.
func (g *referenceGraph) Collapse(resolve Resolver) *RouterGraph {
	rg := &RouterGraph{
		vantages: append([]string(nil), g.vantages...),
		nodes:    make(map[RouterID]RouterNode),
		edges:    make(map[RouterEdge]int64),
	}
	for a, fl := range g.nodes {
		id := routerOf(a, resolve)
		n := rg.nodes[id]
		n.Flags |= fl
		n.Interfaces++
		rg.nodes[id] = n
	}
	rg.Folded = len(g.nodes) - len(rg.nodes)
	for e, n := range g.edges {
		src, dst := routerOf(e.Src, resolve), routerOf(e.Dst, resolve)
		if src == dst {
			rg.IntraRouter += n
			continue
		}
		rg.edges[RouterEdge{Src: src, Dst: dst, Proto: e.Proto, V: e.V}] += n
	}
	return rg
}
