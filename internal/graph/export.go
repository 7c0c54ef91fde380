package graph

import (
	"bufio"
	"fmt"
	"io"
	"net/netip"
	"os"
	"sort"
	"strconv"
	"strings"

	"beholder/internal/bgp"
	"beholder/internal/wire"
)

// WriteFile exports g to path — canonical NDJSON when the path ends in
// .ndjson, Graphviz DOT otherwise — and reports flush/close failures,
// so a full disk cannot masquerade as a successful export. tbl may be
// nil (no AS annotation). Both cmds route their -graph flags here.
func WriteFile(path string, g *Graph, tbl *bgp.Table) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if strings.HasSuffix(path, ".ndjson") {
		err = g.WriteNDJSON(w, tbl)
	} else {
		err = g.WriteDOT(w, tbl)
	}
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// node is one node in its public form.
type node struct {
	addr  netip.Addr
	flags NodeFlags
}

// sortedNodes returns the nodes in canonical (address) order.
func (g *Graph) sortedNodes() []node {
	out := make([]node, 0, g.nNodes)
	g.ForEachNode(func(a netip.Addr, fl NodeFlags) {
		out = append(out, node{a, fl})
	})
	sort.Slice(out, func(i, j int) bool { return out[i].addr.Compare(out[j].addr) < 0 })
	return out
}

// countedEdge is one edge in its public form with its multiplicity.
type countedEdge struct {
	Edge
	n int64
}

// sortedEdges returns the edges in canonical order: by source, then
// destination, gap, protocol, and vantage *name* — never by vantage
// index, so graphs merged in different orders export byte-identically.
func (g *Graph) sortedEdges() []countedEdge {
	out := make([]countedEdge, 0, g.NumEdges())
	g.ForEachEdge(func(e Edge, n int64) {
		out = append(out, countedEdge{e, n})
	})
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
func (g *Graph) WriteNDJSON(w io.Writer, tbl *bgp.Table) error {
	vjson := quoteList(g.Vantages())
	if _, err := fmt.Fprintf(w, `{"graph":{"vantages":%s,"nodes":%d,"edges":%d,"paths":%d,"traversals":%d}}`+"\n",
		vjson, g.nNodes, g.NumEdges(), g.nPaths, g.Traversals()); err != nil {
		return err
	}
	for _, nd := range g.sortedNodes() {
		a, fl := nd.addr, nd.flags
		asn := originOf(tbl, a)
		if _, err := fmt.Fprintf(w, `{"node":{"addr":%q,"iface":%t,"dest":%t,"asn":%d}}`+"\n",
			a, fl&NodeInterface != 0, fl&NodeDest != 0, asn); err != nil {
			return err
		}
	}
	for _, e := range g.sortedEdges() {
		if _, err := fmt.Fprintf(w, `{"edge":{"src":%q,"dst":%q,"gap":%d,"proto":%q,"vantage":%q,"srcAsn":%d,"dstAsn":%d,"n":%d}}`+"\n",
			e.Src, e.Dst, e.Gap, wire.TransportName(e.Proto), g.VantageName(e.V),
			originOf(tbl, e.Src), originOf(tbl, e.Dst), e.n); err != nil {
			return err
		}
	}
	return nil
}

// WriteDOT emits the graph in Graphviz DOT form, in the same canonical
// order as WriteNDJSON. Destination (periphery) nodes render as boxes;
// edges carry their TTL gap and multiplicity, with destination edges
// dashed. tbl, when non-nil, adds origin ASNs to node labels.
func (g *Graph) WriteDOT(w io.Writer, tbl *bgp.Table) error {
	if _, err := fmt.Fprint(w, "digraph topology {\n  rankdir=LR;\n  node [shape=ellipse, fontsize=10];\n"); err != nil {
		return err
	}
	for _, nd := range g.sortedNodes() {
		a, fl := nd.addr, nd.flags
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
			e.Src, e.Dst, e.Gap, e.n, style); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}

// sortedEdges returns router edges in canonical order (vantage by
// name).
func (rg *RouterGraph) sortedEdges() []RouterEdge {
	out := make([]RouterEdge, 0, len(rg.edges))
	for e := range rg.edges {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Src != b.Src {
			return a.Src.less(b.Src)
		}
		if a.Dst != b.Dst {
			return a.Dst.less(b.Dst)
		}
		if a.Proto != b.Proto {
			return a.Proto < b.Proto
		}
		return rg.VantageName(a.V) < rg.VantageName(b.V)
	})
	return out
}

// sortedRouters returns router identities in canonical order.
func (rg *RouterGraph) sortedRouters() []RouterID {
	out := make([]RouterID, 0, len(rg.nodes))
	for id := range rg.nodes {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].less(out[j]) })
	return out
}

// WriteNDJSON emits the router-level graph in canonical NDJSON.
func (rg *RouterGraph) WriteNDJSON(w io.Writer) error {
	if _, err := fmt.Fprintf(w, `{"routerGraph":{"routers":%d,"edges":%d,"folded":%d,"intraRouter":%d}}`+"\n",
		len(rg.nodes), len(rg.edges), rg.Folded, rg.IntraRouter); err != nil {
		return err
	}
	for _, id := range rg.sortedRouters() {
		n := rg.nodes[id]
		if _, err := fmt.Fprintf(w, `{"router":{"id":%q,"aliased":%t,"interfaces":%d,"dest":%t}}`+"\n",
			id, id.Aliased, n.Interfaces, n.Flags&NodeDest != 0); err != nil {
			return err
		}
	}
	for _, e := range rg.sortedEdges() {
		if _, err := fmt.Fprintf(w, `{"redge":{"src":%q,"dst":%q,"proto":%q,"vantage":%q,"n":%d}}`+"\n",
			e.Src, e.Dst, wire.TransportName(e.Proto), rg.VantageName(e.V), rg.edges[e]); err != nil {
			return err
		}
	}
	return nil
}

// WriteDOT emits the router-level graph in Graphviz DOT form. Aliased
// (collapsed) routers render as double circles sized by interface
// count.
func (rg *RouterGraph) WriteDOT(w io.Writer) error {
	if _, err := fmt.Fprint(w, "digraph routers {\n  rankdir=LR;\n  node [shape=ellipse, fontsize=10];\n"); err != nil {
		return err
	}
	for _, id := range rg.sortedRouters() {
		n := rg.nodes[id]
		attrs := ""
		switch {
		case id.Aliased:
			attrs = ", shape=doublecircle"
		case n.Flags&NodeDest != 0:
			attrs = ", shape=box"
		}
		if _, err := fmt.Fprintf(w, "  %q [label=\"%s\\nifaces=%d\"%s];\n",
			id, id, n.Interfaces, attrs); err != nil {
			return err
		}
	}
	for _, e := range rg.sortedEdges() {
		if _, err := fmt.Fprintf(w, "  %q -> %q [label=\"n=%d\"];\n", e.Src, e.Dst, rg.edges[e]); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}

// originOf looks up an address's origin ASN, RIR-augmented; 0 without a
// table or a covering prefix.
func originOf(tbl *bgp.Table, a netip.Addr) uint32 {
	if tbl == nil {
		return 0
	}
	return tbl.OriginAny(a)
}

// quoteList renders a string slice as a JSON array.
func quoteList(ss []string) string {
	out := "["
	for i, s := range ss {
		if i > 0 {
			out += ","
		}
		out += strconv.Quote(s)
	}
	return out + "]"
}
