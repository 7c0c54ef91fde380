package beholder

// Campaign-scale experiments: Table 7, Figures 6 and 7, and the Section
// 5.3 platform comparison.

import (
	"net/netip"
	"slices"
	"strconv"

	"beholder/internal/analysis"
	"beholder/internal/ipv6"
	"beholder/internal/netsim"
	"beholder/internal/probe"
	"beholder/internal/target"
	"beholder/internal/trace"
)

// allCampaigns runs the full Table 7 matrix: every vantage, every
// campaign seed, both aggregation levels — 48 campaigns, submitted to
// the supervisor at once.
func (e *Experiments) allCampaigns() []*campResult {
	var cells []campCell
	for vidx := range vantageSpecs {
		for _, s := range campaignSeeds {
			for _, zn := range []int{64, 48} {
				cells = append(cells, campCell{vidx, e.targetSet(s, zn, target.FixedIID)})
			}
		}
	}
	return e.runCampaigns(cells)
}

// Table7 reproduces "Results of aggregate Yarrp campaigns run from three
// vantages": per-campaign discovery, exclusivity, coverage,
// reachability, path length, and EUI-64 interface analysis.
func (e *Experiments) Table7() *Table {
	camps := e.allCampaigns()

	t := &Table{
		ID:    "Table 7",
		Title: "Aggregate Yarrp6 campaign results (three vantages, fixediid, maxTTL 16 + fill)",
		Headers: []string{"Campaign", "Traces", "Targets", "RtrAddrs", "ExclAddrs",
			"BGPPfx", "ExclPfx", "ASNs", "ExclASN", "ReachASN", "PathLen95(med)",
			"EUI64", "EUI64%", "EUIOff5(med)"},
	}

	// Aggregates: ALL plus per vantage.
	aggRow := func(label string, filter func(*campResult) bool, exclBase map[string]map[netip.Addr]struct{}) {
		ifaces := make(map[netip.Addr]struct{})
		var traces int64
		var targets int64
		var pathLens []int
		euiIfaces := make(map[netip.Addr]struct{})
		var euiOffs []int
		var reachedSum float64
		nReach := 0
		for _, c := range camps {
			if !filter(c) {
				continue
			}
			traces += c.stats.ProbesSent
			targets += int64(c.targets)
			for a := range c.ifaces {
				ifaces[a] = struct{}{}
				if isEUI(a) {
					euiIfaces[a] = struct{}{}
				}
			}
			pathLens = append(pathLens, c.pathLens...)
			euiOffs = append(euiOffs, c.euiOffsets...)
			reachedSum += c.reached
			nReach++
		}
		slices.Sort(pathLens)
		slices.Sort(euiOffs)
		excl := 0
		if exclBase != nil {
			mult := make(map[netip.Addr]int)
			for _, s := range exclBase {
				for a := range s {
					mult[a]++
				}
			}
			for a := range ifaces {
				if mult[a] == 1 {
					excl++
				}
			}
		}
		reach := 0.0
		if nReach > 0 {
			reach = reachedSum / float64(nReach)
		}
		euiPct := 0.0
		if len(ifaces) > 0 {
			euiPct = float64(len(euiIfaces)) / float64(len(ifaces))
		}
		t.AddRow(label, kfmt(traces), kfmt(targets), kfmt(int64(len(ifaces))), kfmt(int64(excl)),
			"-", "-", "-", "-", pct(reach),
			strconv.Itoa(analysis.Percentile(pathLens, 95))+" ("+strconv.Itoa(analysis.Percentile(pathLens, 50))+")",
			kfmt(int64(len(euiIfaces))), pct(euiPct),
			strconv.Itoa(analysis.Percentile(euiOffs, 5))+" ("+strconv.Itoa(analysis.Percentile(euiOffs, 50))+")")
	}

	// Per-vantage interface pools for cross-vantage exclusivity.
	vantagePools := make(map[string]map[netip.Addr]struct{})
	for _, c := range camps {
		pool := vantagePools[c.vantage]
		if pool == nil {
			pool = make(map[netip.Addr]struct{})
			vantagePools[c.vantage] = pool
		}
		for a := range c.ifaces {
			pool[a] = struct{}{}
		}
	}
	aggRow("ALL", func(*campResult) bool { return true }, nil)
	for _, vs := range vantageSpecs {
		aggRow(vs.name, func(c *campResult) bool { return c.vantage == vs.name }, vantagePools)
	}

	// Per-set rows (EU-NET vantage, both aggregation levels), with
	// exclusivity across the per-set z64+z48 campaign pools.
	setPools := make(map[string]map[netip.Addr]struct{})
	for _, c := range camps {
		if c.vantage != "EU-NET" {
			continue
		}
		pool := setPools[c.setName]
		if pool == nil {
			pool = make(map[netip.Addr]struct{})
			setPools[c.setName] = pool
		}
		for a := range c.ifaces {
			pool[a] = struct{}{}
		}
	}
	exclBySet := analysis.ExclusiveKeys(setPools)

	pfxPools := make(map[string]map[netip.Prefix]struct{})
	asnPools := make(map[string]map[uint32]struct{})
	for _, c := range camps {
		if c.vantage != "EU-NET" {
			continue
		}
		pfxPools[c.setName] = c.pfxs
		asnPools[c.setName] = c.asns
	}
	exclPfx := analysis.ExclusiveKeys(pfxPools)
	exclASN := analysis.ExclusiveKeys(asnPools)

	for _, c := range camps {
		if c.vantage != "EU-NET" {
			continue
		}
		euiPct := 0.0
		if len(c.ifaces) > 0 {
			euiPct = float64(c.euiIfaces) / float64(len(c.ifaces))
		}
		t.AddRow(c.setName, kfmt(c.stats.ProbesSent), kfmt(int64(c.targets)),
			kfmt(int64(len(c.ifaces))), kfmt(int64(exclBySet[c.setName])),
			kfmt(int64(len(c.pfxs))), strconv.Itoa(exclPfx[c.setName]),
			kfmt(int64(len(c.asns))), strconv.Itoa(exclASN[c.setName]),
			pct(c.reached),
			strconv.Itoa(analysis.Percentile(c.pathLens, 95))+" ("+strconv.Itoa(analysis.Percentile(c.pathLens, 50))+")",
			kfmt(int64(c.euiIfaces)), pct(euiPct),
			strconv.Itoa(analysis.Percentile(c.euiOffsets, 5))+" ("+strconv.Itoa(analysis.Percentile(c.euiOffsets, 50))+")")
	}
	t.Notes = append(t.Notes,
		"Expected shape: cdn-k32 and tum lead overall and exclusive discovery; EUI-64 addresses concentrate at path ends for CDN sets (median offset 0); US-EDU-2's longer on-premise path lowers its yield.")
	return t
}

func isEUI(a netip.Addr) bool {
	return ipv6.IsEUI64IID(ipv6.IID(a))
}

// Figure6 reproduces "Selected Result Features of Yarrp Campaigns":
// per-set totals (traces, interfaces, covering prefixes/ASNs) and the
// exclusive insets, for the z64 campaigns.
func (e *Experiments) Figure6() *Figure {
	camps := e.z64Campaigns()
	fig := &Figure{
		ID:     "Figure 6",
		Title:  "Result features of z64 Yarrp6 campaigns (EU-NET)",
		XLabel: "feature (1=Traces 2=IntAddrs 3=IntBGPPfx 4=IntASNs)",
		YLabel: "count (exclusive-count series suffixed ':excl')",
	}
	ifPools := make(map[string]map[netip.Addr]struct{})
	pfxPools := make(map[string]map[netip.Prefix]struct{})
	asnPools := make(map[string]map[uint32]struct{})
	for _, c := range camps {
		ifPools[c.setName] = c.ifaces
		pfxPools[c.setName] = c.pfxs
		asnPools[c.setName] = c.asns
	}
	exclIf := analysis.ExclusiveKeys(ifPools)
	exclPfx := analysis.ExclusiveKeys(pfxPools)
	exclASN := analysis.ExclusiveKeys(asnPools)
	for _, c := range camps {
		fig.Series = append(fig.Series, analysis.Series{
			Name: c.setName,
			X:    []float64{1, 2, 3, 4},
			Y: []float64{float64(c.stats.ProbesSent), float64(len(c.ifaces)),
				float64(len(c.pfxs)), float64(len(c.asns))},
		})
		fig.Series = append(fig.Series, analysis.Series{
			Name: c.setName + ":excl",
			X:    []float64{2, 3, 4},
			Y:    []float64{float64(exclIf[c.setName]), float64(exclPfx[c.setName]), float64(exclASN[c.setName])},
		})
	}
	return fig
}

// Figure7 reproduces "Address discovery power per z64 target set vs
// probe packets emitted": the campaigns' progress series from the
// EU-NET vantage, including the random control.
func (e *Experiments) Figure7() *Figure {
	fig := &Figure{
		ID:     "Figure 7",
		Title:  "Discovery power per z64 target set (EU-NET)",
		XLabel: "probes emitted",
		YLabel: "unique interface addresses",
	}
	plot := func(name string, c *campResult) {
		s := analysis.Series{Name: name}
		for _, p := range c.progress {
			// The drain tail repeats the last (probes, interfaces) pair
			// at every sample; plot it once.
			x, y := float64(p.Probes), float64(p.Interfaces)
			if n := len(s.X); n > 0 && s.X[n-1] == x && s.Y[n-1] == y {
				continue
			}
			s.X = append(s.X, x)
			s.Y = append(s.Y, y)
		}
		fig.Series = append(fig.Series, s)
	}
	for _, c := range e.z64Campaigns() {
		plot(c.setName, c)
	}
	// Random control.
	plot("random", e.runCampaign(0, e.targetSet("random", 64, target.FixedIID)))
	fig.Notes = append(fig.Notes,
		"Expected shape: caida saturates early (breadth, no depth); random decays; 6gen mirrors random at an offset; cdn-k32 and tum keep discovering.")
	return fig
}

// PlatformValidation reproduces the Section 5.3 comparison: production
// sequential platforms (Ark-like and Atlas-like, many vantages probing
// BGP ::1 targets) against one Yarrp6 vantage-day.
func (e *Experiments) PlatformValidation() *Table {
	t := &Table{
		ID:      "Validation (§5.3)",
		Title:   "Production-platform comparison (one simulated day)",
		Headers: []string{"Platform", "Vantages", "Targets", "Traces", "Int Addrs"},
	}
	caida := e.targetSet("caida", 64, target.LowByte1)
	targets := caida.Targets.Addrs()

	// Ark-like: a handful of vantages tracing every BGP target
	// sequentially.
	platform := func(label string, vantages int, perVantage int) {
		e.in.Reset()
		ifaces := make(map[netip.Addr]struct{})
		var traces int64
		for i := 0; i < vantages; i++ {
			v := e.in.u.NewVantage(netsim.VantageSpec{
				Name: label + "-" + strconv.Itoa(i), Kind: netsim.KindUniversity, ChainLen: 3 + i%4,
			})
			store := probe.NewStore(true)
			seq := trace.NewSequential(v, trace.SequentialConfig{
				Engine: trace.EngineConfig{PPS: 100, Window: 64},
				MaxTTL: 16,
			})
			sub := targets
			if perVantage < len(targets) {
				start := (i * perVantage) % len(targets)
				end := start + perVantage
				if end > len(targets) {
					end = len(targets)
				}
				sub = targets[start:end]
			}
			stats := seq.Run(sub, store)
			traces += stats.ProbesSent
			store.ForEachInterface(func(a netip.Addr) { ifaces[a] = struct{}{} })
		}
		t.AddRow(label, strconv.Itoa(vantages), kfmt(int64(len(targets))), kfmt(traces), kfmt(int64(len(ifaces))))
	}
	platform("Ark-like", 4, len(targets))
	platform("Atlas-like", 12, len(targets)/10+1)

	// One Yarrp6 vantage, cdn-k32 targets (the paper's headline: an
	// order of magnitude more interfaces than the platforms).
	set := e.targetSet("cdn-k32", 64, target.FixedIID)
	c := e.runCampaign(0, set)
	t.AddRow("Yarrp6 (1 vantage)", "1", kfmt(int64(c.targets)), kfmt(c.stats.ProbesSent), kfmt(int64(len(c.ifaces))))
	t.Notes = append(t.Notes,
		"Expected shape: Yarrp6 from a single vantage discovers a large multiple of the sequential platforms' interfaces.")
	return t
}
