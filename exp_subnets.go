package beholder

// Section 6 experiments: Figure 8 (subnets inferred by path divergence)
// and the ground-truth validation including stratified sampling.

import (
	"math/rand"
	"net/netip"
	"strconv"

	"beholder/internal/analysis"
	"beholder/internal/ipv6"
	"beholder/internal/netsim"
	"beholder/internal/subnet"
	"beholder/internal/target"
)

// Figure8 reproduces "Subnets inferred by path divergence": (a) the CDF
// of inferred minimum subnet prefix lengths per target set and (b) the
// per-length counts, with the IA-hack /64 pins reported above length 64.
func (e *Experiments) Figure8() (cdf, counts *Figure) {
	camps := e.z64Campaigns()
	cdf = &Figure{
		ID: "Figure 8a", Title: "Path-divergence-inferred subnet minimum prefix lengths (CDF)",
		XLabel: "inferred minimum prefix length", YLabel: "cumulative fraction of prefixes",
	}
	counts = &Figure{
		ID: "Figure 8b", Title: "Counts of inferred subnets by prefix length",
		XLabel: "inferred minimum prefix length", YLabel: "count (IA-hack /64 pins reported as note)",
	}
	totalIA := 0
	var combined [65]int
	for _, c := range camps {
		total := 0
		for _, n := range c.subnetLenHist {
			total += n
		}
		sCDF := analysis.Series{Name: c.setName}
		sCnt := analysis.Series{Name: c.setName}
		cum := 0
		for l := 24; l <= 64; l++ {
			cum += c.subnetLenHist[l]
			combined[l] += c.subnetLenHist[l]
			if l%4 == 0 {
				sCDF.X = append(sCDF.X, float64(l))
				if total > 0 {
					sCDF.Y = append(sCDF.Y, float64(cum)/float64(total))
				} else {
					sCDF.Y = append(sCDF.Y, 0)
				}
				sCnt.X = append(sCnt.X, float64(l))
				sCnt.Y = append(sCnt.Y, float64(c.subnetLenHist[l]))
			}
		}
		cdf.Series = append(cdf.Series, sCDF)
		counts.Series = append(counts.Series, sCnt)
		totalIA += c.iaCount
	}
	sComb := analysis.Series{Name: "combined"}
	for l := 24; l <= 64; l += 4 {
		sComb.X = append(sComb.X, float64(l))
		sComb.Y = append(sComb.Y, float64(combined[l]))
	}
	counts.Series = append(counts.Series, sComb)
	counts.Notes = append(counts.Notes,
		"IA-hack exact /64 pins across campaigns: "+strconv.Itoa(totalIA),
		"Expected shape: per-set discovery power tracks the sets' target DPL distributions (Figure 3a).")
	return cdf, counts
}

// SubnetValidation reproduces the Section 6 ground-truth comparison. On
// the simulator exact truth is available: the discovered candidates are
// scored against the true provisioned subnet plan of enterprise
// networks, both for a dense campaign and for the paper's stratified
// sample (one target per truth subnet), which bounds discovery to the
// truth granularity.
func (e *Experiments) SubnetValidation() *Table {
	// Ground truth: provisioned subnets of enterprise ASes down to /64.
	rng := rand.New(rand.NewSource(e.opt.Seed + 66))
	var truth []netip.Prefix
	var truthASes []*netsim.AS
	for _, as := range e.in.u.ASes() {
		if as.Kind != netsim.KindEnterprise {
			continue
		}
		truthASes = append(truthASes, as)
		truth = append(truth, e.in.u.TruthSubnets(as, 64, 200)...)
		if len(truth) > 4000 {
			break
		}
	}

	// Dense targets inside the truth networks: several /64 gateways per
	// AS give neighbor pairs with high DPLs.
	var targets []netip.Addr
	for _, as := range truthASes {
		for i := 0; i < 60; i++ {
			if lan, ok := e.in.u.RandomLAN(rng, as); ok {
				targets = append(targets, ipv6.WithIID(lan.Addr(), target.FixedIIDValue))
			}
		}
	}
	tgtSet := ipv6.NewSet(targets)

	// The dense and stratified campaigns, from the EU-NET vantage.
	v := e.vantage(0)
	opt := SubmitOptions{MaxTTL: 24, Fill: true, Key: 55}
	var reports []subnet.ValidationReport
	for _, r := range e.supervise([]submission{
		{v, tgtSet.Addrs(), opt},
		{v, subnet.StratifiedSample(tgtSet.Addrs(), truth), opt},
	}) {
		res := subnet.Discover(r.Store, e.in.u.Table(), v.v.AS().ASN)
		reports = append(reports, subnet.Validate(res.Candidates, truth))
	}
	dense, strat := reports[0], reports[1]

	t := &Table{
		ID:      "Subnet validation (§6)",
		Title:   "Discovered candidate subnets vs simulator ground truth (enterprise networks)",
		Headers: []string{"Campaign", "Truth", "Candidates", "Exact", "MoreSpecific", "Short-1", "Short-2", "TruthCovered"},
	}
	row := func(name string, r subnet.ValidationReport) {
		t.AddRow(name, strconv.Itoa(r.TruthTotal), strconv.Itoa(r.Candidates), strconv.Itoa(r.ExactMatches),
			strconv.Itoa(r.MoreSpecifics), strconv.Itoa(r.ShortByOne), strconv.Itoa(r.ShortByTwo), strconv.Itoa(r.TruthCovered))
	}
	row("dense", dense)
	row("stratified", strat)
	t.Notes = append(t.Notes,
		"Expected shape: dense probing discovers truth subnets mostly as more-specifics; stratified sampling trades candidates for a higher exact-match rate, with misses concentrated one or two bits short.")
	return t
}

// ExpStep is one named unit of the experiment suite: running it yields
// the renderables it contributes, in paper order. Steps let callers
// observe suite progress (cmd/beholder streams one NDJSON record per
// completed step) without changing what All produces.
type ExpStep struct {
	Name string
	Run  func() []Renderable
}

// Steps returns the experiment suite as named units. Running the steps
// in order and concatenating their renderables is exactly All().
func (e *Experiments) Steps() []ExpStep {
	one := func(f func() Renderable) func() []Renderable {
		return func() []Renderable { return []Renderable{f()} }
	}
	two := func(f func() (*Figure, *Figure)) func() []Renderable {
		return func() []Renderable { a, b := f(); return []Renderable{a, b} }
	}
	return []ExpStep{
		{"table1-seed-sources", one(func() Renderable { return e.Table1() })},
		{"table2-seed-overlap", one(func() Renderable { return e.Table2() })},
		{"table3-prefix-transform", one(func() Renderable { return e.Table3() })},
		{"table4-tum-composition", one(func() Renderable { return e.Table4() })},
		// Figure3 runs before Table5/Figure2, matching All's historical
		// computation order (shared caches make order immaterial to the
		// rendered bytes, but the cheap guarantee is worth keeping).
		{"figure3-rate-limiting", two(e.Figure3)},
		{"table5-rate-yield", one(func() Renderable { return e.Table5() })},
		{"figure2-discovery-curve", one(func() Renderable { return e.Figure2() })},
		{"figure5-sequential-comparison", two(e.Figure5)},
		{"protocol-comparison", one(func() Renderable { return e.ProtocolComparison() })},
		{"doubletree-study", one(func() Renderable { return e.DoubletreeStudy() })},
		{"table6-fill-mode", one(func() Renderable { return e.Table6() })},
		{"table7-campaign-matrix", one(func() Renderable { return e.Table7() })},
		{"figure6-interface-overlap", one(func() Renderable { return e.Figure6() })},
		{"figure7-vantage-overlap", one(func() Renderable { return e.Figure7() })},
		{"platform-validation", one(func() Renderable { return e.PlatformValidation() })},
		{"figure8-path-lengths", two(e.Figure8)},
		{"subnet-validation", one(func() Renderable { return e.SubnetValidation() })},
		{"alias-study", one(func() Renderable { return e.AliasStudy() })},
		{"graph-study", one(func() Renderable { return e.GraphStudy() })},
		{"adaptive-study", one(func() Renderable { return e.AdaptiveStudy() })},
	}
}

// All regenerates every table and figure, in paper order. This is what
// cmd/beholder renders into EXPERIMENTS.md.
func (e *Experiments) All() []Renderable {
	var out []Renderable
	steps := e.Steps()
	got := make([][]Renderable, len(steps))
	for i, s := range steps {
		got[i] = s.Run()
	}
	// Emission order differs from computation order in one place: the
	// Figure3 pair renders after Table5 and Figure2, as the paper lays
	// them out.
	order := []int{0, 1, 2, 3, 5, 6, 4, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19}
	for _, i := range order {
		out = append(out, got[i]...)
	}
	return out
}
