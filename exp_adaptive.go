package beholder

// Adaptive-generation experiments: the closed-loop follow-on study.
// gen6prob's probabilistic prefix trie — seeded from the same 6Gen
// density prior the static pipelines use — grows its target set epoch
// by epoch from discovery feedback, and is scored against the static
// pipelines at equal probe budget. The comparison the paper's Section 5
// gestures at (density predicts discovery) becomes a measured table:
// budget steered toward answering regions buys more interfaces per
// probe than any fixed target set.

import (
	"net/netip"
	"strconv"
	"time"

	"beholder/internal/core"
	"beholder/internal/gen6prob"
	"beholder/internal/probe"
	"beholder/internal/sixgen"
	"beholder/internal/target"
	"beholder/internal/wire"
)

// adaptiveStudyBudget is the equal probe budget every AdaptiveStudy
// pipeline gets: 256 targets' worth of 16-TTL schedules.
const adaptiveStudyBudget = 4096

// AdaptiveStudy compares closed-loop adaptive generation against the
// static pipelines at equal probe budget, all from the EU-NET vantage
// on pristine per-run router state. The static rows probe a fixed
// target set derived from the dnsdb seeds (lowbyte synthesis and 6Gen
// enumeration); the adaptive row seeds gen6prob with the same observed
// addresses and lets epoch feedback re-weight its trie between batches.
func (e *Experiments) AdaptiveStudy() *Table {
	const maxTTL = 16
	ttlSpan := int64(maxTTL)
	nTargets := int(adaptiveStudyBudget / ttlSpan)
	seedAddrs := e.seedLists()["dnsdb"].Addrs.Addrs()
	key := uint64(e.opt.Seed) ^ 0xada7

	t := &Table{
		ID:      "Adaptive (follow-on)",
		Title:   "Adaptive probabilistic generation vs static pipelines at equal budget (EU-NET, dnsdb seeds)",
		Headers: []string{"Pipeline", "Targets", "Probes", "Interfaces", "If/1k budget"},
	}

	// Discovery-per-probe at equal budget: every pipeline is charged the
	// full shared budget, whether it spends it or not. A static list that
	// runs out of targets early (lowbyte has only as many /64s as the
	// seed set) leaves the rest of its budget idle — the inability to
	// keep generating credible targets is exactly the deficit the
	// adaptive loop exists to fix, so the yield denominator must not
	// reward it.
	addRow := func(name string, targets, probes, ifaces int64) {
		perK := fmtF(float64(ifaces)*1000/float64(adaptiveStudyBudget), 1)
		t.AddRow(name, strconv.Itoa(int(targets)), kfmt(probes), strconv.Itoa(int(ifaces)), perK)
	}

	// Static pipelines: a fixed target list walked once, truncated to
	// the shared budget.
	static := []struct {
		name    string
		targets []netip.Addr
	}{
		{"static lowbyte (z64)", e.targetSet("dnsdb", 64, target.LowByte1).Targets.Addrs()},
		{"static 6gen", sixgen.Generate(seedAddrs, sixgen.DefaultConfig(nTargets))},
	}
	subs := make([]submission, len(static))
	for i, st := range static {
		subs[i] = submission{e.vantage(0), st.targets[:min(len(st.targets), nTargets)], SubmitOptions{MaxTTL: maxTTL, Key: key}}
	}
	for i, r := range e.supervise(subs) {
		addRow(static[i].name, int64(len(subs[i].targets)), r.Stats.ProbesSent, int64(r.Store.NumInterfaces()))
	}

	// Adaptive pipeline: same seeds, same vantage conditions, same
	// budget — but the domain grows at epoch boundaries from discovery
	// and alias feedback.
	store, astats := e.runAdaptive(seedAddrs, key, adaptiveStudyBudget, maxTTL)
	addRow("adaptive gen6prob", sumEpochTargets(astats), astats.ProbesSent, int64(store.NumInterfaces()))

	t.Notes = append(t.Notes,
		"Equal budget: every pipeline is charged "+kfmt(adaptiveStudyBudget)+" probes; a static list that exhausts its targets early leaves the remainder idle, which the If/1k-budget denominator does not forgive.",
		"The adaptive row re-weights its prefix trie between epochs from novel-interface rewards and APD prunes, so later epochs concentrate on subtrees that keep answering.")
	return t
}

// runAdaptive drives one gen6prob-fed adaptive campaign over pristine
// vantage clones and returns the merged store and run statistics.
func (e *Experiments) runAdaptive(seedAddrs []netip.Addr, key uint64, budget int64, maxTTL uint8) (*probe.Store, core.CampaignStats) {
	pv := e.vantage(0).v
	src := gen6prob.New(seedAddrs, gen6prob.Config{Key: key})
	acfg := core.AdaptiveConfig{
		CampaignConfig: core.CampaignConfig{
			Config: core.Config{
				PPS:    e.opt.Rate,
				MaxTTL: maxTTL,
				Proto:  wire.ProtoICMPv6,
				Key:    key,
			},
			Shards:      1,
			RecordPaths: true,
		},
		Source:        src,
		Budget:        budget,
		EpochTargets:  16,
		MaxEpochs:     32,
		DetectAliases: aliasHook(pv, e.opt.Seed, src),
	}
	camp := core.NewAdaptive(acfg, func(_ int, start time.Duration) probe.Conn {
		return pv.Clone(start)
	})
	store, astats, err := camp.Run()
	if err != nil {
		panic("beholder: adaptive study campaign failed: " + err.Error())
	}
	return store, astats
}

// sumEpochTargets totals the targets an adaptive run generated.
func sumEpochTargets(st core.CampaignStats) int64 {
	var n int64
	for _, e := range st.Epochs {
		n += int64(e.Targets)
	}
	return n
}
