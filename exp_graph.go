package beholder

// Topology-graph experiments: the study's actual deliverable is a
// graph, not a probe log, and the value of another vantage point is the
// marginal topology it contributes to the union (Section 5.3's
// cross-vantage argument, restated at the graph level). GraphStudy runs
// one z64 campaign per vantage, builds each vantage's graph from its
// trace store, unions them, and collapses interfaces into routers
// against the simulator's exact aliased ground truth.

import (
	"strconv"

	"beholder/internal/alias"
	"beholder/internal/analysis"
	"beholder/internal/graph"
	"beholder/internal/target"
	"beholder/internal/wire"
)

// graphStudySeed is the target set the graph study probes: fdns_any
// carries both genuine topology and CDN-style aliased /64s, so the
// router-collapse pass has real work to do.
const graphStudySeed = "fdns_any"

// graphCampaigns runs (or fetches) one campaign per vantage, together
// under the supervisor, and returns their graphs in vantageSpecs order.
func (e *Experiments) graphCampaigns() []*graph.Graph {
	if e.graphs != nil {
		return e.graphs
	}
	set := e.targetSet(graphStudySeed, 64, target.FixedIID)
	subs := make([]submission, len(vantageSpecs))
	for i := range vantageSpecs {
		subs[i] = submission{e.vantage(i), set.Targets.Addrs(),
			SubmitOptions{MaxTTL: 16, Fill: true, Key: uint64(e.opt.Seed) ^ 0x67726166 ^ uint64(i)<<32}}
	}
	for i, r := range e.supervise(subs) {
		e.graphs = append(e.graphs, graph.FromStore(r.Store, subs[i].v.v.Name(), wire.ProtoICMPv6))
	}
	return e.graphs
}

// GraphUnion returns the cross-vantage union of the graph study's
// campaign graphs (running them first if needed) — what cmd/beholder
// -graph exports.
func (e *Experiments) GraphUnion() *graph.Graph {
	return graph.Union(e.graphCampaigns()...)
}

// truthAliasStore builds an alias store from the simulator's exact
// aliased-/64 plan — the resolution source the router collapse folds
// interfaces with. Real deployments would use APD results
// (Vantage.DetectAliases) instead; ground truth keeps the study's
// collapse numbers free of detector noise.
func (e *Experiments) truthAliasStore() *alias.Store {
	st := alias.NewStore()
	for _, as := range e.in.u.ASes() {
		for _, p := range e.in.u.TruthAliasedLANs(as, 64) {
			st.Add(alias.Record{Prefix: p, Aliased: true})
		}
	}
	return st
}

// GraphStudy reproduces the "union across vantages grows the topology"
// analysis at the graph level: per-vantage interface graphs, marginal
// contribution in vantage order, cross-vantage exclusive links, and the
// alias-collapsed router view of the union.
func (e *Experiments) GraphStudy() *Table {
	gs := e.graphCampaigns()
	names := make([]string, len(vantageSpecs))
	for i, vs := range vantageSpecs {
		names[i] = vs.name
	}
	union := graph.Union(gs...)

	marginal := analysis.MarginalContribution(names, gs)
	exclusive := analysis.ExclusiveLinks(names, gs)
	rg := union.Collapse(graph.StoreResolver(e.truthAliasStore()))

	t := &Table{
		ID:    "Graph (follow-on)",
		Title: "Topology graphs per vantage and their union (" + graphStudySeed + " z64 fixediid, maxTTL 16 + fill)",
		Headers: []string{"Graph", "Nodes", "Ifaces", "Dests", "Links", "AnnotEdges",
			"DestEdges", "MaxOut", "+Nodes", "+Links", "ExclLinks"},
	}
	row := func(label string, g *graph.Graph, dNodes, dLinks, excl string) {
		m := analysis.MetricsOf(g)
		t.AddRow(label, kfmt(int64(m.Nodes)), kfmt(int64(m.IfaceNodes)), kfmt(int64(m.DestNodes)),
			kfmt(int64(m.LinkEdges)), kfmt(int64(m.Edges)), kfmt(int64(m.DestEdges)),
			strconv.Itoa(m.MaxOut), dNodes, dLinks, excl)
	}
	for i, g := range gs {
		row(names[i], g,
			kfmt(int64(marginal[i].NewNodes)), kfmt(int64(marginal[i].NewLinks)),
			kfmt(int64(exclusive[names[i]])))
	}
	row("UNION", union, "-", "-", "-")

	t.Notes = append(t.Notes,
		"+Nodes/+Links: marginal contribution when vantages are unioned in row order — every additional vantage still grows the graph.",
		"Links are distinct directed interface pairs; AnnotEdges keep (TTL gap, protocol, vantage) annotation; DestEdges are periphery links into reached targets.",
		"Router collapse of the union against exact aliased ground truth: "+
			strconv.Itoa(rg.NumRouters())+" routers from "+strconv.Itoa(union.NumNodes())+" interfaces ("+
			strconv.Itoa(rg.Folded)+" folded, "+kfmt(rg.IntraRouter)+" intra-router traversals dropped), "+
			strconv.Itoa(rg.NumEdges())+" router edges.")
	return t
}
