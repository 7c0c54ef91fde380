package beholder

import (
	"bytes"
	"testing"
)

// graphExport runs one fdns_any z64 campaign under the given shard count,
// with the vantage's plan table or without one, returning the canonical
// NDJSON bytes of its graph.
func graphExport(t *testing.T, shards int, table bool) []byte {
	t.Helper()
	in := NewSmallInternet(77)
	targets, err := in.TargetSet("fdns_any", 64, "fixediid", 0.4)
	if err != nil {
		t.Fatal(err)
	}
	v := in.NewVantage("graph-det")
	if !table {
		defer v.v.SuspendPlanCache()()
	}
	res, err := v.RunYarrp6(targets, YarrpOptions{
		Rate: 20000, MaxTTL: 16, Key: 7, Fill: true, Shards: shards, Graph: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Graph().WriteNDJSON(&buf, in.Universe().Table()); err != nil {
		t.Fatal(err)
	}
	if res.Graph().NumEdges() == 0 {
		t.Fatal("campaign built an empty graph")
	}
	return buf.Bytes()
}

// TestGraphPlanCacheDeterminism: at every shard count, the plan table
// must not change the campaign's graph by a byte. (The full shards ×
// table matrix — including cross-shard-count byte equality — lives in
// internal/core's TestGraphShardCacheMatrix on a non-saturating
// universe; this facade run is a fill-mode campaign past the small
// universe's rate-limit saturation point, where shard counts may
// legitimately differ by a few replies — see core's package comment.)
func TestGraphPlanCacheDeterminism(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		if !bytes.Equal(graphExport(t, shards, false), graphExport(t, shards, true)) {
			t.Errorf("graph differs between plan table off/on at shards=%d", shards)
		}
	}
}

// TestResultGraphFallback: without YarrpOptions.Graph, Result.Graph()
// builds the graph on first call — and it must equal the one a
// Graph: true run returns with.
func TestResultGraphFallback(t *testing.T) {
	run := func(eager bool) *Result {
		in := NewSmallInternet(31)
		targets, err := in.TargetSet("caida", 64, "lowbyte1", 0.4)
		if err != nil {
			t.Fatal(err)
		}
		v := in.NewVantage("graph-fallback")
		res, err := v.RunYarrp6(targets, YarrpOptions{Rate: 20000, MaxTTL: 16, Key: 3, Graph: eager})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	built, lazy := run(true), run(false)
	var a, b bytes.Buffer
	if err := built.Graph().WriteNDJSON(&a, nil); err != nil {
		t.Fatal(err)
	}
	if err := lazy.Graph().WriteNDJSON(&b, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("graphs built at run end and on first call differ")
	}
	// The graph's interface nodes mirror the store's interface set.
	m := built.Graph()
	ifaces := 0
	for _, addr := range built.Interfaces() {
		if m.NodeFlagsOf(addr) != 0 {
			ifaces++
		}
	}
	if ifaces != built.NumInterfaces() {
		t.Fatalf("graph covers %d of %d store interfaces", ifaces, built.NumInterfaces())
	}
}

// TestUnionAndCollapseFacade exercises the cross-vantage union and the
// alias-driven router collapse through the facade.
func TestUnionAndCollapseFacade(t *testing.T) {
	in := NewSmallInternet(19)
	targets, err := in.TargetSet("fdns_any", 64, "fixediid", 0.4)
	if err != nil {
		t.Fatal(err)
	}
	var graphs []*Result
	for _, name := range []string{"union-a", "union-b"} {
		v := in.NewVantageAt(name, "hosting", 3)
		res, err := v.RunYarrp6(targets, YarrpOptions{Rate: 20000, MaxTTL: 16, Key: 5, Graph: true})
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, res)
	}
	u := UnionGraphs(graphs[0].Graph(), graphs[1].Graph())
	if u.NumNodes() < graphs[0].Graph().NumNodes() {
		t.Fatal("union lost nodes")
	}
	if got := len(u.Vantages()); got != 2 {
		t.Fatalf("union vantages = %d, want 2", got)
	}

	// Collapse against detected aliases: aliased fdns_any /64s fold.
	cands := AliasCandidates(targets)
	aliases := in.NewVantage("union-apd").DetectAliases(cands, AliasOptions{Rate: 20000})
	rg := CollapseGraph(u, aliases)
	if rg.NumRouters() > u.NumNodes() {
		t.Fatal("collapse grew the node count")
	}
	if aliases.Len() > 0 && rg.NumRouters() == u.NumNodes() && rg.Folded == 0 {
		// Aliased prefixes exist; the campaign may or may not have
		// traversed them, so only sanity-check the identity bound here.
		t.Log("no interfaces folded (no aliased hops on probed paths)")
	}
	if CollapseGraph(u, nil).NumRouters() != u.NumNodes() {
		t.Fatal("nil-alias collapse is not the identity")
	}
}
