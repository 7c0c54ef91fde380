package graph

import (
	"bytes"
	"math/rand"
	"net/netip"
	"strings"
	"testing"

	"beholder/internal/alias"
	"beholder/internal/probe"
	"beholder/internal/wire"
)

func addr(t *testing.T, s string) netip.Addr {
	t.Helper()
	a, err := netip.ParseAddr(s)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func te(target, from netip.Addr, ttl uint8) probe.Reply {
	return probe.Reply{
		Kind: probe.KindTimeExceeded, From: from, Target: target,
		TTL: ttl, Proto: wire.ProtoICMPv6, StateRecovered: true,
	}
}

// edgeCount returns e's multiplicity in g, 0 when absent.
func edgeCount(g *Graph, e Edge) int64 {
	var n int64
	g.ForEachEdge(func(ge Edge, gn int64) {
		if ge == e {
			n = gn
		}
	})
	return n
}

func echo(target netip.Addr) probe.Reply {
	return probe.Reply{Kind: probe.KindEchoReply, From: target, Target: target, Proto: wire.ProtoICMPv6}
}

// TestIncrementalIntervalSplit drives hops in scrambled TTL order and
// checks the edge multiset matches the final path, including the
// spanning-edge split when a middle hop arrives late.
func TestIncrementalIntervalSplit(t *testing.T) {
	tgt := addr(t, "2001:db8::1")
	h1 := addr(t, "2001:db8:1::1")
	h2 := addr(t, "2001:db8:2::1")
	h3 := addr(t, "2001:db8:3::1")

	g := New("v0")
	g.OnReply(te(tgt, h1, 1))
	g.OnReply(te(tgt, h3, 3))
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d, want 1 (spanning 1->3)", g.NumEdges())
	}
	wantSpan := Edge{Src: h1, Dst: h3, Gap: 2, Proto: wire.ProtoICMPv6}
	if edgeCount(g, wantSpan) != 1 {
		t.Fatalf("spanning edge missing: %v", g.edges)
	}
	// Middle hop arrives: the gap-2 edge must split into two gap-1
	// edges.
	g.OnReply(te(tgt, h2, 2))
	if g.NumEdges() != 2 {
		t.Fatalf("edges = %d, want 2 after split", g.NumEdges())
	}
	if edgeCount(g, wantSpan) != 0 {
		t.Fatal("spanning edge survived the split")
	}
	for _, e := range []Edge{
		{Src: h1, Dst: h2, Gap: 1, Proto: wire.ProtoICMPv6},
		{Src: h2, Dst: h3, Gap: 1, Proto: wire.ProtoICMPv6},
	} {
		if edgeCount(g, e) != 1 {
			t.Fatalf("missing sub-edge %v", e)
		}
	}
	// Duplicate TTL keeps the first answer on the path (the source still
	// counts as a discovered interface node, mirroring the store's
	// interface set).
	g.OnReply(te(tgt, addr(t, "2001:db8:9::9"), 2))
	if g.NumEdges() != 2 || g.NumNodes() != 4 {
		t.Fatalf("edges=%d nodes=%d after dup TTL, want 2/4", g.NumEdges(), g.NumNodes())
	}

	// The target answers: a dashed destination edge from the last hop.
	g.OnReply(echo(tgt))
	de := Edge{Src: h3, Dst: tgt, Gap: DestGap, Proto: wire.ProtoICMPv6}
	if edgeCount(g, de) != 1 {
		t.Fatal("destination edge missing")
	}
	if g.NodeFlagsOf(tgt)&NodeDest == 0 {
		t.Fatal("target not marked NodeDest")
	}
	// A deeper hop arrives afterwards: the destination edge re-anchors.
	h4 := addr(t, "2001:db8:4::1")
	g.OnReply(te(tgt, h4, 5))
	if edgeCount(g, de) != 0 {
		t.Fatal("stale destination edge from old last hop")
	}
	if edgeCount(g, Edge{Src: h4, Dst: tgt, Gap: DestGap, Proto: wire.ProtoICMPv6}) != 1 {
		t.Fatal("destination edge did not re-anchor to the new last hop")
	}
}

// randReplies synthesizes a deterministic reply stream over nTargets
// targets with random responsive TTL subsets and random reached flags.
func randReplies(seed int64, nTargets int) []probe.Reply {
	rng := rand.New(rand.NewSource(seed))
	var out []probe.Reply
	for i := 0; i < nTargets; i++ {
		tgt := synthAddr(0xd0, i)
		for ttl := 1; ttl <= 12; ttl++ {
			if rng.Intn(3) == 0 {
				continue // unresponsive hop: produces a TTL gap
			}
			// A small shared router pool makes interfaces recur across
			// paths, so node/edge dedup is exercised.
			out = append(out, te(tgt, synthAddr(0xae, rng.Intn(40)), uint8(ttl)))
		}
		if rng.Intn(2) == 0 {
			out = append(out, echo(tgt))
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func synthAddr(tag byte, i int) netip.Addr {
	var b [16]byte
	b[0], b[1] = 0x20, 0x01
	b[2] = tag
	b[14], b[15] = byte(i>>8), byte(i)
	return netip.AddrFrom16(b)
}

// TestArrivalOrderIndependence: any arrival order of the same replies
// yields the identical graph.
func TestArrivalOrderIndependence(t *testing.T) {
	replies := randReplies(7, 60)
	build := func(order []probe.Reply) *Graph {
		g := New("v0")
		for _, r := range order {
			g.OnReply(r)
		}
		return g
	}
	a := build(replies)
	rev := make([]probe.Reply, len(replies))
	for i, r := range replies {
		rev[len(replies)-1-i] = r
	}
	b := build(rev)
	if !a.Equal(b) {
		t.Fatal("graphs differ under reversed reply order")
	}
	if !b.Equal(a) {
		t.Fatal("Equal is asymmetric")
	}
}

// TestMergeCommutesAndAssociates splits a reply stream into per-shard
// graphs and checks every merge grouping and order produces the graph
// the unsharded stream builds — including byte-identical canonical
// export.
func TestMergeCommutesAndAssociates(t *testing.T) {
	replies := randReplies(11, 80)
	full := New("v0")
	for _, r := range replies {
		full.OnReply(r)
	}
	// Shard by (target, ttl) the way campaign permutation slices do:
	// disjoint, deterministic.
	shards := make([]*Graph, 3)
	for i := range shards {
		shards[i] = New("v0")
	}
	for _, r := range replies {
		h := int(r.Target.As16()[15]+r.TTL) % len(shards)
		shards[h].OnReply(r)
	}
	orders := [][]int{{0, 1, 2}, {2, 1, 0}, {1, 0, 2}}
	var exports []string
	for _, ord := range orders {
		m := Union(shards[ord[0]], shards[ord[1]], shards[ord[2]])
		if !m.Equal(full) {
			t.Fatalf("merge order %v differs from unsharded graph", ord)
		}
		var buf bytes.Buffer
		if err := m.WriteNDJSON(&buf, nil); err != nil {
			t.Fatal(err)
		}
		exports = append(exports, buf.String())
	}
	// Associativity: ((0+1)+2) vs (0+(1+2)).
	left := Union(Union(shards[0], shards[1]), shards[2])
	right := Union(shards[0], Union(shards[1], shards[2]))
	if !left.Equal(right) || !left.Equal(full) {
		t.Fatal("merge is not associative")
	}
	var fullBuf bytes.Buffer
	if err := full.WriteNDJSON(&fullBuf, nil); err != nil {
		t.Fatal(err)
	}
	for i, s := range exports {
		if s != fullBuf.String() {
			t.Fatalf("canonical export differs for merge order %v", orders[i])
		}
	}
}

// TestTieBreakCommutes: overlapping (target, ttl) with different
// addresses — which campaign shards never produce, but ad-hoc merges
// can — resolves to the same winner in either merge direction.
func TestTieBreakCommutes(t *testing.T) {
	tgt := addr(t, "2001:db8::1")
	lo := addr(t, "2001:db8:a::1")
	hi := addr(t, "2001:db8:b::1")
	mk := func(h netip.Addr) *Graph {
		g := New("v0")
		g.OnReply(te(tgt, addr(t, "2001:db8:0::1"), 1))
		g.OnReply(te(tgt, h, 2))
		return g
	}
	a, b := mk(lo), mk(hi)
	ab, ba := Union(a, b), Union(b, a)
	if !ab.Equal(ba) {
		t.Fatal("tie-break is order-dependent")
	}
	if edgeCount(ab, Edge{Src: addr(t, "2001:db8:0::1"), Dst: lo, Gap: 1, Proto: wire.ProtoICMPv6}) != 1 {
		t.Fatal("tie-break did not keep the smaller address")
	}
}

// TestStreamingMatchesBatch: the streaming observer and FromStore over
// the equivalent trace store build equal graphs.
func TestStreamingMatchesBatch(t *testing.T) {
	replies := randReplies(13, 70)
	// Duplicate (target, TTL) replies with conflicting sources: both the
	// store and the streaming builder must keep the first answer, so the
	// equivalence survives retransmitted/duplicated replies too.
	dupTgt := synthAddr(0xd0, 1)
	replies = append(replies,
		te(dupTgt, synthAddr(0xfe, 1), 3),
		te(dupTgt, synthAddr(0x01, 1), 3))
	g := New("v0")
	st := probe.NewStore(true)
	for _, r := range replies {
		st.Add(r)
		g.OnReply(r)
	}
	batch := FromStore(st, "v0", wire.ProtoICMPv6)
	if !g.Equal(batch) {
		t.Fatal("streaming graph differs from batch FromStore graph")
	}
	if g.NumNodes() < st.NumInterfaces() {
		t.Fatalf("graph nodes %d < store interfaces %d", g.NumNodes(), st.NumInterfaces())
	}
}

// TestCrossVantageUnion: same target, different vantages — paths must
// not mix, edges keep vantage attribution.
func TestCrossVantageUnion(t *testing.T) {
	tgt := addr(t, "2001:db8::1")
	a1, a2 := addr(t, "2001:db8:a::1"), addr(t, "2001:db8:a::2")
	b1, b2 := addr(t, "2001:db8:b::1"), addr(t, "2001:db8:b::2")

	ga := New("A")
	ga.OnReply(te(tgt, a1, 1))
	ga.OnReply(te(tgt, a2, 2))
	gb := New("B")
	gb.OnReply(te(tgt, b1, 1))
	gb.OnReply(te(tgt, b2, 2))

	u := Union(ga, gb)
	if u.NumNodes() != 4 || u.NumEdges() != 2 {
		t.Fatalf("union nodes=%d edges=%d, want 4/2", u.NumNodes(), u.NumEdges())
	}
	names := u.Vantages()
	if len(names) != 2 || names[0] != "A" || names[1] != "B" {
		t.Fatalf("vantages = %v", names)
	}
	// No cross-vantage edge may exist: A's TTL-1 hop never links to B's
	// TTL-2 hop.
	u.ForEachEdge(func(e Edge, _ int64) {
		if e.Src == a1 && e.Dst == b2 || e.Src == b1 && e.Dst == a2 {
			t.Fatalf("cross-vantage edge %v", e)
		}
	})
}

// TestCollapse folds two interfaces under one aliased /64 and checks
// router counts, edge re-keying, and intra-router edge dropping.
func TestCollapse(t *testing.T) {
	tgt := addr(t, "2001:db8::1")
	r1 := addr(t, "2001:db8:aa::1")
	m1 := addr(t, "2001:db8:ff::1") // middlebox interface 1
	m2 := addr(t, "2001:db8:ff::2") // middlebox interface 2
	pfx := netip.MustParsePrefix("2001:db8:ff::/64")

	g := New("v0")
	g.OnReply(te(tgt, r1, 1))
	g.OnReply(te(tgt, m1, 2))
	g.OnReply(te(tgt, m2, 3))

	st := alias.NewStore()
	st.Add(alias.Record{Prefix: pfx, Aliased: true})
	rg := g.Collapse(StoreResolver(st))

	if rg.NumRouters() != 2 {
		t.Fatalf("routers = %d, want 2", rg.NumRouters())
	}
	if rg.Folded != 1 {
		t.Fatalf("folded = %d, want 1", rg.Folded)
	}
	if rg.IntraRouter != 1 { // the m1->m2 edge collapses into the router
		t.Fatalf("intra-router = %d, want 1", rg.IntraRouter)
	}
	if rg.NumEdges() != 1 {
		t.Fatalf("router edges = %d, want 1 (r1 -> aliased prefix)", rg.NumEdges())
	}
	want := RouterEdge{
		Src:   RouterID{Addr: r1},
		Dst:   RouterID{Aliased: true, Prefix: pfx},
		Proto: wire.ProtoICMPv6,
	}
	if rg.edges[want] != 1 {
		t.Fatalf("router edge missing; have %v", rg.edges)
	}
	// Nil store: identity collapse.
	id := g.Collapse(StoreResolver(nil))
	if id.NumRouters() != g.NumNodes() || id.Folded != 0 {
		t.Fatal("nil-store collapse is not the identity")
	}
}

// TestExportShape sanity-checks the DOT and NDJSON emitters.
func TestExportShape(t *testing.T) {
	g := New("v0")
	tgt := addr(t, "2001:db8::1")
	g.OnReply(te(tgt, addr(t, "2001:db8:a::1"), 1))
	g.OnReply(te(tgt, addr(t, "2001:db8:b::1"), 2))
	g.OnReply(echo(tgt))

	var dot bytes.Buffer
	if err := g.WriteDOT(&dot, nil); err != nil {
		t.Fatal(err)
	}
	s := dot.String()
	if !strings.HasPrefix(s, "digraph topology {") || !strings.Contains(s, "style=dashed") {
		t.Fatalf("unexpected DOT output:\n%s", s)
	}

	var nd bytes.Buffer
	if err := g.WriteNDJSON(&nd, nil); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(nd.String()), "\n")
	// Header + 3 nodes + 2 edges.
	if len(lines) != 6 {
		t.Fatalf("NDJSON lines = %d, want 6:\n%s", len(lines), nd.String())
	}
	if !strings.Contains(lines[0], `"vantages":["v0"]`) {
		t.Fatalf("bad header: %s", lines[0])
	}

	rg := g.Collapse(StoreResolver(nil))
	var rnd, rdot bytes.Buffer
	if err := rg.WriteNDJSON(&rnd); err != nil {
		t.Fatal(err)
	}
	if err := rg.WriteDOT(&rdot); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rnd.String(), `"routerGraph"`) || !strings.HasPrefix(rdot.String(), "digraph routers {") {
		t.Fatal("router export shape wrong")
	}
}
