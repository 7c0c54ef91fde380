// Package graph builds the study's actual deliverable: the topology
// graph. Probe logs and interface counts are intermediate artifacts —
// the paper's comparisons (discovery power per strategy, marginal gain
// per vantage, periphery structure) are statements about the
// interface-level directed multigraph a campaign induces.
//
// A campaign's graph is a function of its trace store: FromStore builds
// it in one pass over the final traces, and that is how every finished
// run — sharded, recovered, resumed, supervised — gets its graph. A Graph
// is also a probe.Observer, folding replies one at a time into the same
// per-(vantage, protocol, target) path skeletons; no service path streams
// one (a running campaign's live view is its progress series), and the
// benchmark module's layer timing is what builds them.
//
// The edge multiset is a pure function of the skeletons, and a graph
// keeps it only between reads: replies and merges touch skeletons only,
// the first reader (NumEdges, Traversals, ForEachEdge, Equal, Collapse,
// the exports) derives the multiset in one pass, one insert per path
// link, and the next change to a skeleton drops it again for the next
// reader to re-derive. Union and FromStore return graphs that already
// hold their derived edges.
//
// Determinism is the package's core invariant. The node set and edge
// multiset are pure functions of the final path skeletons — never of
// reply arrival order — and Merge unions skeletons (with a commutative
// tie-break) before re-deriving edges. Campaign shards own disjoint
// (target × TTL) slices, so per-shard subgraphs merge into exactly the
// graph a single unsharded prober would have built, byte-identical
// under canonical export at any shard count and any plan-cache size.
// Cross-vantage union is the same Merge: paths are keyed by vantage, so
// differing views of one target never mix.
package graph

import (
	"net/netip"
	"slices"
	"sort"
	"sync"

	"beholder/internal/ipv6"
	"beholder/internal/probe"
	"beholder/internal/sorted"
)

// NodeFlags classifies how an address entered the graph.
type NodeFlags uint8

// Node classification bits.
const (
	// NodeInterface marks a router interface address (a Time Exceeded
	// source).
	NodeInterface NodeFlags = 1 << iota
	// NodeDest marks a probe destination that itself responded (echo
	// reply, RST, or port unreachable) — the graph's periphery.
	NodeDest
)

// DestGap is the Gap value of destination edges (last responsive hop →
// reached target): the remaining hop distance is unknown, so the gap
// carries no TTL arithmetic.
const DestGap = 0

// Edge is one annotated directed multigraph edge. Src and Dst are
// interface addresses (Dst is a destination address for Gap == DestGap
// edges); Gap is the TTL distance between the two hops (1 = directly
// consecutive responses, >1 spans unresponsive hops); Proto is the
// probing transport; V indexes the graph's vantage table.
type Edge struct {
	Src, Dst netip.Addr
	Gap      uint8
	Proto    uint8
	V        uint8
}

// pathKey identifies one path skeleton: what one vantage learned about
// one target under one transport, packed as target id, vantage index and
// protocol into a single word (the runtime's 64-bit map fast path).
// Keying by vantage and protocol keeps differing views of the same
// target apart, which is what makes Merge serve both shard folding (same
// key space, disjoint TTLs) and cross-vantage union (disjoint key
// spaces).
type pathKey uint64

func makePathKey(v, proto uint8, target uint32) pathKey {
	return pathKey(target)<<16 | pathKey(v)<<8 | pathKey(proto)
}

func (k pathKey) target() uint32 { return uint32(k >> 16) }
func (k pathKey) v() uint8       { return uint8(k >> 8) }
func (k pathKey) proto() uint8   { return uint8(k) }

// edgeKey is the internal form of Edge: address ids instead of
// addresses. Twelve pointer-free bytes, so the edge multiset — the
// graph's largest and hottest map — hashes a quarter of what an
// address-keyed entry would and is never scanned by the garbage
// collector.
type edgeKey struct {
	src, dst      uint32
	gap, proto, v uint8
}

// hop is one responsive hop of a path skeleton.
type hop struct {
	ttl uint8
	id  uint32
}

// path is the per-(vantage, proto, target) skeleton edges derive from.
type path struct {
	key     pathKey
	hops    []hop // sorted by TTL, unique TTLs
	reached bool
}

// Graph is a deterministic interface-level directed multigraph under
// incremental construction. It implements probe.Observer; a Graph
// observing a campaign is owned by that prober's fold goroutine while
// the run lasts, and shard/vantage subgraphs are folded afterwards with
// Merge.
//
// Every address the graph meets — hop source, reached destination, or
// merely the target a path is keyed by — is interned once into a dense
// uint32 id through an ipv6.Table; paths, hops and edges hold ids, and
// addresses reappear only at the public boundary (Edge, ForEach*, export,
// Collapse). An id is a node exactly when its flags are nonzero: a target
// that never answered owns an id, keys its path skeleton, and is not a
// node. The table is the graph's own, and flags and first always span it.
type Graph struct {
	vantages []string
	self     uint8 // vantage index OnReply attributes replies to

	tab    *ipv6.Table // address <-> id
	flags  []NodeFlags // id -> classification; zero: not a node
	nNodes int         // ids with nonzero flags

	// first[id] is the first skeleton created for target id — in a
	// single-vantage, single-protocol graph (every shard builder) the
	// only one, so the reply path reaches a skeleton by index, with no
	// second hash lookup. Further (vantage, protocol) views of a target
	// that already has one live in more.
	first  []*path
	more   map[pathKey]*path
	nPaths int

	// edges is the edge multiset derived from the skeletons, nil until a
	// reader asks (derive) and again after any skeleton changes;
	// traversals, valid with it, is the sum of all multi-edge counts,
	// i.e. path-links contributing topology.
	edges      map[edgeKey]int64
	traversals int64

	// block slab-allocates path structs in fixed pieces and hopSlab
	// pre-backs their hop lists, keeping the observer's steady-state
	// allocation rate near zero on the packet fast path.
	block   []path
	hopSlab []hop
}

// New creates an empty graph whose OnReply attributes replies to the
// named vantage.
func New(vantage string) *Graph {
	g := newOver(ipv6.NewTable(0))
	g.self = g.vantageIndex(vantage)
	return g
}

// newOver creates an empty graph interning through tab.
func newOver(tab *ipv6.Table) *Graph {
	return &Graph{
		tab:   tab,
		flags: make([]NodeFlags, tab.Len()),
		first: make([]*path, tab.Len()),
		more:  make(map[pathKey]*path),
	}
}

// Union folds any number of graphs into a fresh one (the inputs are not
// modified). Merge is commutative and associative, so the result is
// independent of argument order up to vantage-table layout, which
// canonical export normalizes away.
//
// The fold is a parallel tree: level k merges blocks of 2^k adjacent
// graphs into their left neighbors on worker goroutines, so fold latency
// over N subgraphs is O(log N) pairwise merges. Adjacent pairing preserves
// left-to-right vantage interning order, so even the pre-normalization
// vantage table matches a serial fold. A receiver that is still one of the
// caller's is cloned the first time it receives — an input that is merely
// read (every right-hand side, an odd one out) is never copied — and
// inputs nobody asked for edges merge as skeletons only, the multiset
// derived once, from the result.
func Union(gs ...*Graph) *Graph {
	if len(gs) == 0 {
		return newOver(ipv6.NewTable(0)).derive()
	}
	cur := append([]*Graph(nil), gs...)
	mine := make([]bool, len(cur)) // cur[i] is a clone this fold owns
	var wg sync.WaitGroup
	for len(cur) > 1 {
		pairs := len(cur) / 2
		for i := 0; i < pairs; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if !mine[2*i] {
					cur[2*i], mine[2*i] = cur[2*i].clone(), true
				}
				cur[2*i].Merge(cur[2*i+1])
			}(i)
		}
		wg.Wait()
		n := 0
		for i := 0; i < len(cur); i += 2 {
			cur[n], mine[n] = cur[i], mine[i]
			n++
		}
		cur, mine = cur[:n], mine[:n]
	}
	if !mine[0] {
		cur[0] = cur[0].clone()
	}
	return cur[0].derive()
}

// clone returns a deep copy of g's ids, flags and skeletons, sharing no
// mutable state; its edges are derived on first read.
func (g *Graph) clone() *Graph {
	out := &Graph{
		vantages: slices.Clone(g.vantages),
		self:     g.self,
		tab:      g.tab.Clone(),
		flags:    slices.Clone(g.flags),
		nNodes:   g.nNodes,
		first:    make([]*path, len(g.first)),
		more:     make(map[pathKey]*path, len(g.more)),
		nPaths:   g.nPaths,
	}
	// One slab for the skeletons and one for their hop lists, each list
	// keeping room to grow as the clone receives merges.
	nHops := 0
	g.forEachPath(func(p *path) { nHops += max(len(p.hops), hopRoom) })
	slab := make([]path, g.nPaths)
	hops := make([]hop, nHops)
	copyOf := func(p *path) *path {
		room := max(len(p.hops), hopRoom)
		np := &slab[0]
		slab = slab[1:]
		*np = path{key: p.key, hops: append(hops[:0:room], p.hops...), reached: p.reached}
		hops = hops[room:]
		return np
	}
	for id, p := range g.first {
		if p != nil {
			out.first[id] = copyOf(p)
		}
	}
	for k, p := range g.more {
		out.more[k] = copyOf(p)
	}
	return out
}

// forEachPath calls fn for every skeleton, in unspecified order.
func (g *Graph) forEachPath(fn func(p *path)) {
	for _, p := range g.first {
		if p != nil {
			fn(p)
		}
	}
	for _, p := range g.more {
		fn(p)
	}
}

// vantageIndex interns a vantage name.
func (g *Graph) vantageIndex(name string) uint8 {
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
func (g *Graph) Vantages() []string {
	out := append([]string(nil), g.vantages...)
	sort.Strings(out)
	return out
}

// intern returns a's id, assigning the next dense one on first sight,
// and makes flags and first reach it.
func (g *Graph) intern(a netip.Addr) uint32 {
	id, _ := g.tab.Intern(a)
	if int(id) == len(g.flags) {
		g.flags = sorted.Append(g.flags, 0)
		g.first = sorted.Append(g.first, nil)
	}
	return id
}

// pathKeyOf builds the key of what this graph's vantage learned about
// target under proto.
func (g *Graph) pathKeyOf(proto uint8, target netip.Addr) pathKey {
	return makePathKey(g.self, proto, g.intern(target))
}

// mark ORs fl into id's classification, counting the id as a node the
// first time it gains any.
func (g *Graph) mark(id uint32, fl NodeFlags) {
	if g.flags[id] == 0 && fl != 0 {
		g.nNodes++
	}
	g.flags[id] |= fl
}

// OnReply folds one parsed probe reply into the graph; it is the
// streaming observer hook probers call after storing the reply. The
// rules mirror probe.Store.Add exactly — first answer per (target, TTL)
// wins, TE sources become interface nodes even when the quotation was
// too mangled to place them on a path — so the graph's node set always
// equals the store's interface set plus the reached destinations.
func (g *Graph) OnReply(r probe.Reply) {
	switch r.Kind {
	case probe.KindTimeExceeded:
		from := g.intern(r.From)
		g.mark(from, NodeInterface)
		if r.Target.IsValid() && r.TTL != 0 {
			g.insertHop(g.pathKeyOf(r.Proto, r.Target), r.TTL, from, false)
		}
	case probe.KindEchoReply, probe.KindTCPRst:
		if r.Target.IsValid() {
			g.reach(g.pathKeyOf(r.Proto, r.Target))
		}
	case probe.KindDestUnreach:
		if r.Code == 4 && r.Target.IsValid() { // port unreachable: from the destination
			g.reach(g.pathKeyOf(r.Proto, r.Target))
		}
	}
}

// hopRoom is the hop-list capacity a new skeleton starts with.
const hopRoom = 16

// getPath returns (creating if needed) the skeleton for k.
func (g *Graph) getPath(k pathKey) *path {
	p := g.first[k.target()]
	switch {
	case p == nil:
		p = g.newPath(k)
		g.first[k.target()] = p
	case p.key != k:
		if p = g.more[k]; p == nil {
			p = g.newPath(k)
			g.more[k] = p
		}
	}
	return p
}

// newPath hands out an empty skeleton for k from the slabs.
func (g *Graph) newPath(k pathKey) *path {
	if len(g.block) == 0 {
		g.block = make([]path, 64)
	}
	p := &g.block[0]
	g.block = g.block[1:]
	p.key = k
	if len(g.hopSlab) < hopRoom {
		g.hopSlab = make([]hop, hopRoom*128)
	}
	p.hops = g.hopSlab[:0:hopRoom]
	g.hopSlab = g.hopSlab[hopRoom:]
	g.nPaths++
	return p
}

// insertHop places (ttl, id) on k's skeleton. tiebreak selects the
// TTL-collision policy: false keeps the hop already present (Store.Add's
// first-answer rule — the streaming path, where "first" is well
// defined), true keeps the lexicographically smaller address (Merge's
// commutative rule, which makes merging order-independent even for
// overlapping ad-hoc merges — campaign shards never collide: their
// (target × TTL) slices are disjoint).
func (g *Graph) insertHop(k pathKey, ttl uint8, id uint32, tiebreak bool) {
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
		old := p.hops[lo].id
		if !tiebreak || old == id || g.tab.Addr(old).Compare(g.tab.Addr(id)) <= 0 {
			return
		}
		// The displaced address may still be an interface via other
		// paths; its node entry stays — interface discovery is monotone.
		p.hops[lo].id = id
	} else {
		p.hops = append(p.hops, hop{})
		copy(p.hops[lo+1:], p.hops[lo:])
		p.hops[lo] = hop{ttl: ttl, id: id}
	}
	g.mark(id, NodeInterface)
	g.edges = nil // stale: the next reader derives the multiset afresh
}

// reach records that k's target responded itself, adding the periphery
// node.
func (g *Graph) reach(k pathKey) {
	p := g.getPath(k)
	if p.reached {
		return
	}
	p.reached = true
	g.mark(k.target(), NodeDest)
	g.edges = nil
}

// addEdge counts one path link into the edge multiset.
func (g *Graph) addEdge(src, dst uint32, gap uint8, k pathKey) {
	g.edges[edgeKey{src: src, dst: dst, gap: gap, proto: k.proto(), v: k.v()}]++
	g.traversals++
}

// derive builds the edge multiset from the skeletons unless the graph
// already holds it, and returns g: one insert per link between
// consecutive hops, plus the destination edge of a reached path that has
// a last hop. Every reader of edges calls it first; any later change to
// a skeleton drops the multiset again.
func (g *Graph) derive() *Graph {
	if g.edges != nil {
		return g
	}
	// Nearly every node is some hop's successor or a reached destination,
	// so it ends at least one distinct edge: the node count is a floor
	// that spares the map its early doublings.
	g.edges, g.traversals = make(map[edgeKey]int64, g.nNodes), 0
	g.forEachPath(func(p *path) {
		k := p.key
		for i := 1; i < len(p.hops); i++ {
			a, b := p.hops[i-1], p.hops[i]
			g.addEdge(a.id, b.id, b.ttl-a.ttl, k)
		}
		if n := len(p.hops); n > 0 && p.reached {
			g.addEdge(p.hops[n-1].id, k.target(), DestGap, k)
		}
	})
	return g
}

// Merge folds o into g (o is not modified). Same-vantage path skeletons
// union hop sets (commutative tie-break on TTL collisions, which
// disjoint campaign shards never produce) and OR reached flags; the edge
// multiset is the pure function of the merged skeletons — identical
// however subgraphs are grouped or ordered — derived by its next
// reader. o's ids are
// translated through one table built in a single pass over its id list —
// one table probe per address o has met, none per hop or edge.
func (g *Graph) Merge(o *Graph) {
	if o == nil || g == o {
		return
	}
	var vmap [256]uint8
	for i, name := range o.vantages {
		vmap[i] = g.vantageIndex(name)
	}
	remap := make([]uint32, len(o.flags))
	for i, fl := range o.flags {
		remap[i] = g.intern(o.tab.Addr(uint32(i)))
		g.mark(remap[i], fl)
	}
	o.forEachPath(func(p *path) {
		k := makePathKey(vmap[p.key.v()], p.key.proto(), remap[p.key.target()])
		for _, h := range p.hops {
			g.insertHop(k, h.ttl, remap[h.id], true)
		}
		if p.reached {
			g.reach(k)
		}
	})
}

// FromStore builds the graph of the store's traces — the graph an
// observer shown the same replies one by one would have produced: the two
// constructions are equivalent by design (and by test). proto annotates
// the edges, since the store does not retain the probing transport; extra
// interface addresses without path placement (mangled quotations) are
// imported as bare nodes. The graph starts from a copy of the store's
// address table, so every address — interface, target and hop — keeps
// the id the store gave it: the store's hop ids are the graph's node ids,
// in TTL order already, and nothing is looked up. The returned graph
// holds its edges.
func FromStore(st *probe.Store, vantage string, proto uint8) *Graph {
	g := newOver(st.AddrTable().Clone())
	g.self = g.vantageIndex(vantage)
	st.ForEachAddr(func(id uint32, iface bool, tr *probe.Trace) {
		if iface {
			g.mark(id, NodeInterface)
		}
		if tr == nil {
			return
		}
		k := makePathKey(g.self, proto, id)
		st.ForEachHop(tr, func(ttl uint8, from uint32) {
			g.insertHop(k, ttl, from, false)
		})
		if tr.Reached {
			g.reach(k)
		}
	})
	return g.derive()
}

// NumNodes returns the node count (interfaces plus reached
// destinations).
func (g *Graph) NumNodes() int { return g.nNodes }

// NumEdges returns the count of distinct annotated edges.
func (g *Graph) NumEdges() int { return len(g.derive().edges) }

// NumPaths returns the count of path skeletons (per vantage, protocol,
// and target).
func (g *Graph) NumPaths() int { return g.nPaths }

// Traversals returns the sum of multi-edge counts: how many path-links
// the edge multiset folds together.
func (g *Graph) Traversals() int64 { return g.derive().traversals }

// NodeFlagsOf returns a node's classification, or 0 if absent.
func (g *Graph) NodeFlagsOf(a netip.Addr) NodeFlags {
	if id, _, ok := g.tab.Find(a); ok {
		return g.flags[id]
	}
	return 0
}

// ForEachNode calls fn for every node, in unspecified order.
func (g *Graph) ForEachNode(fn func(addr netip.Addr, flags NodeFlags)) {
	for id, fl := range g.flags {
		if fl != 0 {
			fn(g.tab.Addr(uint32(id)), fl)
		}
	}
}

// edgeOf translates an internal edge to its public form.
func (g *Graph) edgeOf(e edgeKey) Edge {
	return Edge{Src: g.tab.Addr(e.src), Dst: g.tab.Addr(e.dst), Gap: e.gap, Proto: e.proto, V: e.v}
}

// ForEachEdge calls fn for every annotated edge with its multiplicity,
// in unspecified order.
func (g *Graph) ForEachEdge(fn func(e Edge, n int64)) {
	for e, n := range g.derive().edges {
		fn(g.edgeOf(e), n)
	}
}

// VantageName resolves an edge's vantage index.
func (g *Graph) VantageName(v uint8) string {
	if int(v) < len(g.vantages) {
		return g.vantages[v]
	}
	return ""
}

// Equal reports whether two graphs hold the identical topology: same
// node classifications and the same annotated edge multiset (vantage
// indices resolved by name). Determinism tests use it; canonical export
// equality is implied.
func (g *Graph) Equal(o *Graph) bool {
	if g.nNodes != o.nNodes || g.NumEdges() != o.NumEdges() {
		return false
	}
	// g's ids in o's numbering; an address o never met maps nowhere.
	const absent = ^uint32(0)
	remap := make([]uint32, len(g.flags))
	for id, fl := range g.flags {
		oid, _, ok := o.tab.Find(g.tab.Addr(uint32(id)))
		if !ok {
			oid = absent
		}
		remap[id] = oid
		var ofl NodeFlags
		if ok {
			ofl = o.flags[oid]
		}
		if ofl != fl {
			return false
		}
	}
	vmap := make([]int, len(g.vantages))
	for i, name := range g.vantages {
		vmap[i] = slices.Index(o.vantages, name)
	}
	for e, n := range g.edges {
		ov := vmap[e.v]
		if ov < 0 || remap[e.src] == absent || remap[e.dst] == absent {
			return false
		}
		if o.edges[edgeKey{src: remap[e.src], dst: remap[e.dst], gap: e.gap, proto: e.proto, v: uint8(ov)}] != n {
			return false
		}
	}
	return true
}
