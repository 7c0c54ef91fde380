package graph

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"testing"

	"beholder/internal/bgp"
	"beholder/internal/probe"
	"beholder/internal/wire"
)

// observed is one reply as one vantage saw it.
type observed struct {
	v int // vantage index into propVantages
	r probe.Reply
}

var propVantages = []string{"A", "B"}

// propStream draws a hostile reply stream: two vantages and two
// transports over one target set, hop answers in shuffled TTL order with
// TTL gaps, duplicate (target, TTL) answers from conflicting sources,
// echo / RST / port-unreachable reaches landing before, between and
// after the hops of their path, other unreachable codes, and Time
// Exceeded sources whose quotation lost the target or the TTL.
func propStream(rng *rand.Rand) []observed {
	var out []observed
	nTargets := 3 + rng.Intn(40)
	for v := range propVantages {
		for _, proto := range []uint8{wire.ProtoICMPv6, wire.ProtoUDP} {
			add := func(r probe.Reply) {
				r.Proto = proto
				out = append(out, observed{v, r})
			}
			for i := 0; i < nTargets; i++ {
				if rng.Intn(4) == 0 {
					continue // this view never probed the target
				}
				tgt := synthAddr(0xd0, i)
				for ttl := 1; ttl <= 10; ttl++ {
					switch rng.Intn(6) {
					case 0, 1:
						continue // unresponsive hop
					case 2:
						// A second, conflicting answer for the same TTL.
						add(te(tgt, synthAddr(0xae, rng.Intn(30)), uint8(ttl)))
					}
					// A small router pool, shared by both vantages, makes
					// nodes and edges recur across paths and views.
					add(te(tgt, synthAddr(0xae, rng.Intn(30)), uint8(ttl)))
				}
				switch rng.Intn(6) {
				case 0:
					add(echo(tgt))
				case 1:
					add(probe.Reply{Kind: probe.KindTCPRst, From: tgt, Target: tgt})
				case 2:
					add(probe.Reply{Kind: probe.KindDestUnreach, Code: 4, From: tgt, Target: tgt})
				case 3:
					add(probe.Reply{Kind: probe.KindDestUnreach, Code: 1, From: synthAddr(0xae, rng.Intn(30)), Target: tgt})
				}
			}
			// Mangled quotations: the source is an interface, nothing more.
			add(probe.Reply{Kind: probe.KindTimeExceeded, From: synthAddr(0xbb, rng.Intn(5)), TTL: 3})
			add(probe.Reply{Kind: probe.KindTimeExceeded, From: synthAddr(0xbb, rng.Intn(5)), Target: synthAddr(0xd0, 0)})
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// propResolver folds part of the router pool into /124 "routers".
func propResolver(a netip.Addr) (netip.Prefix, bool) {
	if b := a.As16(); b[2] == 0xae && b[15]%3 != 0 {
		return netip.PrefixFrom(a, 124).Masked(), true
	}
	return netip.Prefix{}, false
}

// exportable is what Graph and referenceGraph both offer a comparison.
type exportable interface {
	WriteNDJSON(w io.Writer, tbl *bgp.Table) error
	WriteDOT(w io.Writer, tbl *bgp.Table) error
	Collapse(resolve Resolver) *RouterGraph
}

// exportsOf renders every canonical form of a graph: NDJSON, DOT, and
// the collapsed router graph's NDJSON and DOT.
func exportsOf(t *testing.T, g exportable) [4][]byte {
	t.Helper()
	var out [4]bytes.Buffer
	rg := g.Collapse(propResolver)
	for i, err := range []error{
		g.WriteNDJSON(&out[0], nil), g.WriteDOT(&out[1], nil),
		rg.WriteNDJSON(&out[2]), rg.WriteDOT(&out[3]),
	} {
		if err != nil {
			t.Fatalf("export %d: %v", i, err)
		}
	}
	return [4][]byte{out[0].Bytes(), out[1].Bytes(), out[2].Bytes(), out[3].Bytes()}
}

// requireSame holds g to the reference: equal counters, byte-equal
// exports.
func requireSame(t *testing.T, label string, g *Graph, ref *referenceGraph, want [4][]byte) {
	t.Helper()
	if g.NumNodes() != len(ref.nodes) || g.NumEdges() != len(ref.edges) ||
		g.NumPaths() != len(ref.paths) || g.Traversals() != ref.traversals {
		t.Fatalf("%s: nodes/edges/paths/traversals %d/%d/%d/%d, reference %d/%d/%d/%d", label,
			g.NumNodes(), g.NumEdges(), g.NumPaths(), g.Traversals(),
			len(ref.nodes), len(ref.edges), len(ref.paths), ref.traversals)
	}
	got := exportsOf(t, g)
	for i, name := range []string{"NDJSON", "DOT", "router NDJSON", "router DOT"} {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: %s export differs from the reference's:\n%s\nreference:\n%s", label, name, got[i], want[i])
		}
	}
}

// partitions splits a stream into n per-vantage subgraph inputs the way
// campaign shards do: every answer for one (vantage, proto, target, TTL)
// lands in one part, arrival order kept, so "first answer wins" means
// the same thing split or whole; replies that claim no TTL slot go
// anywhere.
func partitions(rng *rand.Rand, stream []observed, n int) [][]observed {
	salt := rng.Intn(1 << 16)
	parts := make([][]observed, n)
	for _, o := range stream {
		i := rng.Intn(n)
		if o.r.Kind == probe.KindTimeExceeded && o.r.Target.IsValid() {
			b := o.r.Target.As16()
			i = (salt + o.v*7 + int(o.r.Proto)*13 + int(b[14])<<8 + int(b[15]) + int(o.r.TTL)*31) % n
		}
		parts[i] = append(parts[i], o)
	}
	return parts
}

// buildParts turns each part into one graph per vantage present in it.
func buildParts(parts [][]observed) []*Graph {
	var gs []*Graph
	for _, part := range parts {
		byV := make([]*Graph, len(propVantages))
		for _, o := range part {
			if byV[o.v] == nil {
				byV[o.v] = New(propVantages[o.v])
				gs = append(gs, byV[o.v])
			}
			byV[o.v].OnReply(o.r)
		}
	}
	return gs
}

// TestGraphMatchesReference holds the dense-id Graph to the
// address-keyed builder it replaced, on random hostile streams: built
// by streaming, by folding 2-5 arbitrary partitions with Union in
// shuffled order, and through FromStore, it must agree with the reference
// on every counter and on every canonical export byte — and Union must
// leave its inputs as it found them.
func TestGraphMatchesReference(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		stream := propStream(rng)

		// The reference: one streaming builder per vantage, folded.
		ref := newReferenceEmpty()
		streamed := make([]*Graph, len(propVantages))
		for v, name := range propVantages {
			rv := newReference(name)
			streamed[v] = New(name)
			for _, o := range stream {
				if o.v == v {
					rv.OnReply(o.r)
					streamed[v].OnReply(o.r)
				}
			}
			ref.Merge(rv)
		}
		want := exportsOf(t, ref)
		label := fmt.Sprintf("trial %d", trial)

		whole := Union(streamed...)
		requireSame(t, label+" streamed", whole, ref, want)

		for _, n := range []int{2, 3, 5} {
			parts := partitions(rng, stream, n)
			gs := buildParts(parts)
			rng.Shuffle(len(gs), func(i, j int) { gs[i], gs[j] = gs[j], gs[i] })
			before := make([][4][]byte, len(gs))
			for i, g := range gs {
				before[i] = exportsOf(t, g)
			}
			u := Union(gs...)
			requireSame(t, fmt.Sprintf("%s Union of %d parts", label, n), u, ref, want)
			if !u.Equal(whole) || !whole.Equal(u) {
				t.Fatalf("%s: Union of %d parts is not Equal to the streamed graph", label, n)
			}
			for i, g := range gs {
				after := exportsOf(t, g)
				for k := range after {
					if !bytes.Equal(after[k], before[i][k]) {
						t.Fatalf("%s: Union modified input %d of %d", label, i, len(gs))
					}
				}
			}
		}

		// FromStore sees one vantage and one transport: the store keeps
		// neither.
		st := probe.NewStore(true)
		one := New(propVantages[0])
		refOne := newReference(propVantages[0])
		for _, o := range stream {
			if o.v == 0 && o.r.Proto == wire.ProtoICMPv6 {
				st.Add(o.r)
				one.OnReply(o.r)
				refOne.OnReply(o.r)
			}
		}
		wantOne := exportsOf(t, refOne)
		requireSame(t, label+" one view streamed", one, refOne, wantOne)
		batch := FromStore(st, propVantages[0], wire.ProtoICMPv6)
		requireSame(t, label+" FromStore", batch, refOne, wantOne)
		if !batch.Equal(one) {
			t.Fatalf("%s: FromStore graph is not Equal to the streamed one", label)
		}
	}
}

// TestGraphOverlappingMergeMatchesReference merges graphs that disagree
// about who answered at a (target, TTL) — what campaign shards never
// produce and ad-hoc merges can — in both argument orders: replaceHop's
// commutative tie-break must pick the reference's winner at the first,
// a middle and the last hop of a path, reached or not.
func TestGraphOverlappingMergeMatchesReference(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		// Two independent draws over the same targets, seen by the same
		// vantage: their paths overlap TTL for TTL with different sources.
		var streams [2][]observed
		for i := range streams {
			for _, o := range propStream(rng) {
				if o.v == 0 {
					streams[i] = append(streams[i], o)
				}
			}
		}
		build := func(s []observed) (*Graph, *referenceGraph) {
			g, r := New("A"), newReference("A")
			for _, o := range s {
				g.OnReply(o.r)
				r.OnReply(o.r)
			}
			return g, r
		}
		a, ra := build(streams[0])
		b, rb := build(streams[1])
		ref := newReferenceEmpty()
		ref.Merge(ra)
		ref.Merge(rb)
		rev := newReferenceEmpty()
		rev.Merge(rb)
		rev.Merge(ra)
		want := exportsOf(t, ref)
		if got := exportsOf(t, rev); !bytes.Equal(got[0], want[0]) {
			t.Fatalf("trial %d: the reference itself is order-dependent", trial)
		}
		label := fmt.Sprintf("trial %d", trial)
		requireSame(t, label+" Union(a, b)", Union(a, b), ref, want)
		requireSame(t, label+" Union(b, a)", Union(b, a), ref, want)
	}
}

// ndjsonOf renders g's canonical NDJSON.
func ndjsonOf(t *testing.T, g *Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteNDJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGraphEdgeStatesAndTablesAgree builds one view's graph every way the
// package offers and requires one topology. A graph whose edges are read
// after every reply (each reply drops the multiset, each read re-derives
// it from the skeletons) tracks the
// reference's counters reply by reply; a graph read only at the end
// (skeletons all along, one derivation); FromStore over the store that
// filed the same replies; and the campaign's shape — window shards of
// store plus graph, the graphs united, the stores folded and FromStore
// run over the fold's table — are all Equal and export the same NDJSON
// bytes. The streams carry duplicate TTL answers, quotations that lost
// the target or the TTL, and reaches landing before, between and after
// the hops of their path.
func TestGraphEdgeStatesAndTablesAgree(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(2000 + trial)))
		var stream []observed
		for _, o := range propStream(rng) {
			if o.v == 0 && o.r.Proto == wire.ProtoICMPv6 {
				stream = append(stream, o)
			}
		}
		label := fmt.Sprintf("trial %d", trial)

		ref := newReference("A")
		eager, lazy := New("A"), New("A")
		st := probe.NewStore(true)
		for i, o := range stream {
			ref.OnReply(o.r)
			eager.OnReply(o.r)
			if eager.NumEdges() != len(ref.edges) || eager.Traversals() != ref.traversals {
				t.Fatalf("%s: after reply %d the maintained graph has %d edges / %d traversals, reference %d / %d",
					label, i, eager.NumEdges(), eager.Traversals(), len(ref.edges), ref.traversals)
			}
			lazy.OnReply(o.r)
			st.Add(o.r)
		}
		if lazy.edges != nil {
			t.Fatalf("%s: a graph nobody read holds an edge multiset", label)
		}
		want := ndjsonOf(t, eager)
		requireSame(t, label+" maintained", eager, ref, exportsOf(t, ref))

		// The campaign's shape, at the shard counts it runs with.
		n := []int{2, 4}[trial%2]
		parts := partitions(rng, stream, n)
		stores := make([]*probe.Store, n)
		shards := make([]*Graph, n)
		for i, part := range parts {
			stores[i] = probe.NewStore(true)
			shards[i] = New("A")
			for _, o := range part {
				stores[i].Add(o.r)
				shards[i].OnReply(o.r)
			}
		}
		for _, s := range stores[1:] {
			stores[0].Merge(s)
		}
		if !stores[0].Equal(st) {
			t.Fatalf("%s: folded shard stores differ from the whole store", label)
		}
		united := Union(shards...)
		if united.edges == nil {
			t.Fatalf("%s: Union returned a graph without its edges", label)
		}

		batch := FromStore(st, "A", wire.ProtoICMPv6)
		if batch.edges == nil {
			t.Fatalf("%s: FromStore returned a graph without its edges", label)
		}
		for name, g := range map[string]*Graph{
			"read at the end": lazy, "FromStore": batch,
			"shards united": united, "FromStore of the folded stores": FromStore(stores[0], "A", wire.ProtoICMPv6),
		} {
			if !g.Equal(eager) || !eager.Equal(g) {
				t.Fatalf("%s: the %s graph is not Equal to the maintained one", label, name)
			}
			if got := ndjsonOf(t, g); !bytes.Equal(got, want) {
				t.Fatalf("%s: the %s graph exports\n%s\nthe maintained one\n%s", label, name, got, want)
			}
		}
		// FromStore copies the table: the store's results stand.
		if !stores[0].Equal(st) || st.NumInterfaces() != len(st.Interfaces()) {
			t.Fatalf("%s: building graphs from a store changed the store", label)
		}
	}
}
