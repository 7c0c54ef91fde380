package beholder

// Experiments over seed lists and target sets: Tables 1, 2, 5 and
// Figures 2 and 3 (Section 3 of the paper).

import (
	"net/netip"
	"strconv"

	"beholder/internal/addrclass"
	"beholder/internal/analysis"
	"beholder/internal/ipv6"
	"beholder/internal/target"
)

// table1Order mirrors the paper's presentation order.
var table1Order = []string{"caida", "dnsdb", "fiebig", "fdns_any", "cdn-k256", "cdn-k32", "6gen", "tum", "random"}

// Table1 reproduces "Seed List Properties": per-source sizes and the
// addr6 classification of interface identifiers (Random / LowByte /
// EUI-64 shares).
func (e *Experiments) Table1() *Table {
	lists := e.seedLists()
	t := &Table{
		ID:      "Table 1",
		Title:   "Seed List Properties",
		Headers: []string{"Name", "Method", "# Addrs", "Random", "LowByte", "EUI-64"},
	}
	for _, name := range table1Order {
		l, ok := lists[name]
		if !ok {
			continue
		}
		if l.Addrs == nil {
			// The CDN publishes anonymized prefixes: all-random by
			// construction, sizes counted in aggregates.
			t.AddRow(l.Name, l.Method, kfmt(int64(l.Prefixes.Len()))+" pfx", "100.0%", "0.0%", "0.0%")
			continue
		}
		c := addrclass.ClassifySet(l.Addrs)
		t.AddRow(l.Name, l.Method, kfmt(int64(c.Total)),
			pct(float64(c.RandomLike())/float64(max(c.Total, 1))),
			pct(c.Fraction(addrclass.ClassLowByte)),
			pct(c.Fraction(addrclass.ClassEUI64)),
		)
	}
	t.Notes = append(t.Notes, "CDN rows report kIP aggregate (prefix) counts; clients are never exposed individually.")
	return t
}

// Table2 reproduces "TUM Seed Subsets": the packaged components of the
// collection and the unique union.
func (e *Experiments) Table2() *Table {
	e.seedLists()
	t := &Table{
		ID:      "Table 2",
		Title:   "TUM Seed Subsets",
		Headers: []string{"Subset", "# Addresses"},
	}
	total := int64(0)
	for _, s := range e.tumSubsets {
		t.AddRow(s.Name, kfmt(int64(s.Count)))
		total += int64(s.Count)
	}
	t.AddRow("Total", kfmt(total))
	t.AddRow("Total Unique", kfmt(int64(e.lists["tum"].Addrs.Len())))
	return t
}

// Table5 reproduces "Target Set Properties": unique and exclusive
// targets, routedness, BGP prefix and ASN coverage, and 6to4 pollution,
// per seed source and aggregation level.
func (e *Experiments) Table5() *Table {
	table := e.in.u.Table()

	// Exclusivity is computed among the independent sets only (the
	// combined and TUM collections would mask their subsets'
	// contributions); TUM's own exclusives are versus the independents.
	indep := independents()

	t := &Table{
		ID:    "Table 5",
		Title: "Target Set Properties",
		Headers: []string{"Name", "Agg", "Unique", "Excl", "Routed", "Excl Rtd",
			"BGP Pfx", "Excl Pfx", "ASNs", "Excl ASN", "6to4"},
	}

	for _, zn := range []int{48, 64} {
		// Build exclusivity pools per zn.
		pool := make(map[string]*ipv6.Set)
		for _, s := range indep {
			pool[s] = e.targetSet(s, zn, target.FixedIID).Targets
		}
		exclTargets := ipv6.Exclusive(pool)

		feat := make(map[string]analysis.Features)
		pfxSets := make(map[string]map[netip.Prefix]struct{})
		asnSets := make(map[string]map[uint32]struct{})
		for _, s := range indep {
			f := analysis.FeaturesOf(pool[s], table)
			feat[s] = f
			pfxSets[s] = f.Prefixes
			asnSets[s] = f.ASNs
		}
		exclPfx := analysis.ExclusiveKeys(pfxSets)
		exclASN := analysis.ExclusiveKeys(asnSets)

		row := func(name string, set *target.Set, excl *ipv6.Set, exclPfxN, exclASNn int, f analysis.Features) {
			exclRouted := 0
			if excl != nil {
				for _, a := range excl.Addrs() {
					if table.Routed(a) {
						exclRouted++
					}
				}
			}
			exclN := "N/A"
			exclR := "N/A"
			if excl != nil {
				exclN = kfmt(int64(excl.Len()))
				exclR = kfmt(int64(exclRouted))
			}
			t.AddRow(name, "z"+strconv.Itoa(set.Spec.ZN), kfmt(int64(set.Targets.Len())), exclN,
				kfmt(int64(f.Routed)), exclR,
				kfmt(int64(len(f.Prefixes))), strconv.Itoa(exclPfxN),
				kfmt(int64(len(f.ASNs))), strconv.Itoa(exclASNn),
				kfmt(int64(analysis.Count6to4(set.Targets))))
		}
		for _, s := range indep {
			row(s, e.targetSet(s, zn, target.FixedIID), exclTargets[s], exclPfx[s], exclASN[s], feat[s])
		}
		// TUM: exclusives versus the independents.
		tum := e.targetSet("tum", zn, target.FixedIID)
		indepSets := make([]*ipv6.Set, len(indep))
		for i, s := range indep {
			indepSets[i] = pool[s]
		}
		union := ipv6.Union(indepSets...)
		tumExcl := tum.Targets.Diff(union)
		tumFeat := analysis.FeaturesOf(tum.Targets, table)
		tumExclFeat := analysis.FeaturesOf(tumExcl, table)
		row("tum", tum, tumExcl, len(tumExclFeat.Prefixes), len(tumExclFeat.ASNs), tumFeat)

		// Combined: union of the independents (no exclusivity by
		// definition).
		combined := target.Combine("combined", zn, target.FixedIID,
			setsOf(e, indep, zn)...)
		cf := analysis.FeaturesOf(combined.Targets, table)
		row("combined", combined, nil, 0, 0, cf)
	}

	// Total over both aggregation levels.
	var all []*target.Set
	for _, s := range append(independents(), "tum") {
		for _, zn := range []int{48, 64} {
			all = append(all, e.targetSet(s, zn, target.FixedIID))
		}
	}
	totalSet := target.Combine("total", 0, target.FixedIID, all...)
	tf := analysis.FeaturesOf(totalSet.Targets, table)
	t.AddRow("Total", "both", kfmt(int64(totalSet.Targets.Len())), "N/A",
		kfmt(int64(tf.Routed)), "N/A",
		kfmt(int64(len(tf.Prefixes))), "N/A",
		kfmt(int64(len(tf.ASNs))), "N/A",
		kfmt(int64(analysis.Count6to4(totalSet.Targets))))
	return t
}

func independents() []string {
	return []string{"caida", "dnsdb", "fiebig", "fdns_any", "cdn-k256", "cdn-k32", "6gen"}
}

func setsOf(e *Experiments, names []string, zn int) []*target.Set {
	out := make([]*target.Set, len(names))
	for i, s := range names {
		out[i] = e.targetSet(s, zn, target.FixedIID)
	}
	return out
}

// Figure2 reproduces "Features contributed by each target set": per-set
// totals and the exclusive fractions of BGP prefixes and ASNs.
func (e *Experiments) Figure2() *Figure {
	table := e.in.u.Table()
	fig := &Figure{
		ID:     "Figure 2",
		Title:  "Features contributed by each z64 target set",
		XLabel: "feature (1=Targets 2=RoutedTargets 3=BGPPfx 4=ASNs)",
		YLabel: "count (exclusive-count series suffixed ':excl')",
	}
	pfxSets := make(map[string]map[netip.Prefix]struct{})
	asnSets := make(map[string]map[uint32]struct{})
	feats := make(map[string]analysis.Features)
	for _, s := range independents() {
		f := analysis.FeaturesOf(e.targetSet(s, 64, target.FixedIID).Targets, table)
		feats[s] = f
		pfxSets[s] = f.Prefixes
		asnSets[s] = f.ASNs
	}
	exclPfx := analysis.ExclusiveKeys(pfxSets)
	exclASN := analysis.ExclusiveKeys(asnSets)
	for _, s := range independents() {
		f := feats[s]
		fig.Series = append(fig.Series, analysis.Series{
			Name: s,
			X:    []float64{1, 2, 3, 4},
			Y: []float64{float64(f.Addrs.Len()), float64(f.Routed),
				float64(len(f.Prefixes)), float64(len(f.ASNs))},
		})
		fig.Series = append(fig.Series, analysis.Series{
			Name: s + ":excl",
			X:    []float64{3, 4},
			Y:    []float64{float64(exclPfx[s]), float64(exclASN[s])},
		})
	}
	fig.Notes = append(fig.Notes,
		"Most prefixes and ASNs are shared by two or more sets; set size does not track BGP feature coverage.")
	return fig
}

// Figure3 reproduces the Discriminating Prefix Length distributions:
// per-set CDFs alone (3a) and when the sets are combined (3b).
func (e *Experiments) Figure3() (alone, combined *Figure) {
	names := append(independents(), "tum")
	alone = &Figure{
		ID: "Figure 3a", Title: "DPL distribution per z64 target set",
		XLabel: "discriminating prefix length", YLabel: "cumulative fraction",
	}
	combined = &Figure{
		ID: "Figure 3b", Title: "DPL distribution when sets are combined",
		XLabel: "discriminating prefix length", YLabel: "cumulative fraction",
	}
	// The union interleaves sets; each member's DPL is recomputed within
	// the union, then attributed back to the sets containing it.
	sets := make([]*ipv6.Set, len(names))
	for i, s := range names {
		sets[i] = e.targetSet(s, 64, target.FixedIID).Targets
	}
	union := ipv6.Union(sets...)
	unionDPL := make(map[netip.Addr]int, union.Len())
	for i, d := range ipv6.DPLs(union) {
		unionDPL[union.At(i)] = d
	}
	for _, s := range names {
		set := e.targetSet(s, 64, target.FixedIID).Targets
		cdf := ipv6.DPLCDF(set)
		alone.Series = append(alone.Series, cdfSeries(s, cdf))

		var comb [129]float64
		var hist [129]int
		for _, a := range set.Addrs() {
			hist[unionDPL[a]]++
		}
		cum := 0
		for d := 0; d <= 128; d++ {
			cum += hist[d]
			if set.Len() > 0 {
				comb[d] = float64(cum) / float64(set.Len())
			}
		}
		combined.Series = append(combined.Series, cdfSeries(s, comb))
	}
	combined.Notes = append(combined.Notes,
		"Rightward shift versus 3a indicates other sets interleave with (cleave apart) this set's targets.")
	return alone, combined
}

func cdfSeries(name string, cdf [129]float64) analysis.Series {
	s := analysis.Series{Name: name}
	for d := 24; d <= 64; d += 4 {
		s.X = append(s.X, float64(d))
		s.Y = append(s.Y, cdf[d])
	}
	return s
}
