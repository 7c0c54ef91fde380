package beholder

import (
	"net/netip"
	"runtime"
	"strings"
	"testing"

	"beholder/internal/ipv6"

	"beholder/internal/testutil"
)

// smallExperiments returns a fast suite for tests.
func smallExperiments() *Experiments {
	return NewExperiments(ExpOptions{Seed: 7, Scale: 0.2, Small: true, Rate: 2000})
}

func TestFacadeQuickCampaign(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	in := NewSmallInternet(3)
	v := in.NewVantage("test-vantage")
	targets, err := in.TargetSet("caida", 64, "lowbyte1", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) == 0 {
		t.Fatal("no targets")
	}
	res, err := v.RunYarrp6(targets, YarrpOptions{Rate: 2000, MaxTTL: 12, Key: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumInterfaces() == 0 {
		t.Error("no interfaces discovered")
	}
	if res.ProbesSent != int64(len(targets))*12 {
		t.Errorf("probes sent %d", res.ProbesSent)
	}
	// A path exists for at least one target.
	found := false
	for _, tgt := range targets {
		if len(res.Path(tgt)) > 0 {
			found = true
			break
		}
	}
	if !found {
		t.Error("no paths recorded")
	}
}

func TestFacadeErrors(t *testing.T) {
	in := NewSmallInternet(3)
	if _, err := in.TargetSet("nope", 64, "lowbyte1", 0.2); err == nil {
		t.Error("unknown seed list accepted")
	}
	if _, err := in.TargetSet("caida", 64, "nope", 0.2); err == nil {
		t.Error("unknown synthesis accepted")
	}
	for _, zn := range []int{-5, 0, 129, 200} {
		if _, err := in.TargetSet("caida", zn, "lowbyte1", 0.2); err == nil {
			t.Errorf("zn %d accepted", zn)
		}
	}
	if _, err := in.TargetSet("caida", 0, "known", 0.2); err != nil {
		t.Errorf("known synthesis refused its ignored zn: %v", err)
	}
	v := in.NewVantage("x")
	if _, err := v.RunYarrp6([]netip.Addr{}, YarrpOptions{}); err == nil {
		t.Error("empty targets accepted")
	}
}

// TestUnknownSeedListBuildsNothing: an unknown seed-list name is refused
// before any list is generated — a /submit naming one must not cost the
// handler a full seed-list build.
func TestUnknownSeedListBuildsNothing(t *testing.T) {
	in := NewSmallInternet(3)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := in.TargetSet("nope", 64, "lowbyte1", 0.2); err == nil {
			t.Fatal("unknown seed list accepted")
		}
	})
	if allocs > 10 {
		t.Errorf("TargetSet of an unknown seed list allocated %.0f times, want <= 10", allocs)
	}
}

func TestFacadeBaselinesAndSubnets(t *testing.T) {
	in := NewSmallInternet(4)
	v := in.NewVantageAt("base", "university", 3)
	targets, err := in.TargetSet("caida", 64, "lowbyte1", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) > 150 {
		targets = targets[:150]
	}
	seq := v.RunSequential(targets, SequentialOptions{Rate: 500, MaxTTL: 12, Window: 32})
	if seq.NumInterfaces() == 0 {
		t.Error("sequential found nothing")
	}
	in.Reset()
	v2 := in.NewVantageAt("base", "university", 3)
	dt := v2.RunDoubletree(targets, DoubletreeOptions{Rate: 500, StartTTL: 5, MaxTTL: 12, Window: 32})
	if dt.NumInterfaces() == 0 {
		t.Error("doubletree found nothing")
	}
	in.Reset()
	v3 := in.NewVantageAt("base", "university", 3)
	res, err := v3.RunYarrp6(targets, YarrpOptions{Rate: 2000, MaxTTL: 16, Fill: true})
	if err != nil {
		t.Fatal(err)
	}
	subnets, ia := v3.DiscoverSubnets(res)
	if len(subnets) == 0 && ia == 0 {
		t.Log("no subnets inferred at this scale (acceptable for tiny target lists)")
	}
}

func TestExperimentSeedTables(t *testing.T) {
	e := smallExperiments()
	t1 := e.Table1()
	if len(t1.Rows) < 8 {
		t.Errorf("Table1 rows = %d", len(t1.Rows))
	}
	if !strings.Contains(t1.Render(), "caida") {
		t.Error("Table1 missing caida row")
	}
	t2 := e.Table2()
	if len(t2.Rows) < 6 {
		t.Errorf("Table2 rows = %d", len(t2.Rows))
	}
	t5 := e.Table5()
	// 7 independents + tum + combined per zn, plus total.
	if len(t5.Rows) != 2*9+1 {
		t.Errorf("Table5 rows = %d want 19", len(t5.Rows))
	}
	f2 := e.Figure2()
	if len(f2.Series) != 14 {
		t.Errorf("Figure2 series = %d", len(f2.Series))
	}
	f3a, f3b := e.Figure3()
	if len(f3a.Series) != 8 || len(f3b.Series) != 8 {
		t.Errorf("Figure3 series = %d/%d", len(f3a.Series), len(f3b.Series))
	}
	// Combination can only shift DPL CDFs left-or-equal at each point
	// (higher DPLs → lower cumulative fraction at small lengths).
	for i := range f3a.Series {
		for j := range f3a.Series[i].Y {
			if f3b.Series[i].Y[j] > f3a.Series[i].Y[j]+1e-9 {
				t.Fatalf("combined CDF above standalone for %s at x=%v",
					f3a.Series[i].Name, f3a.Series[i].X[j])
			}
		}
	}
}

func TestExperimentTuningTables(t *testing.T) {
	e := smallExperiments()
	t3 := e.Table3()
	if len(t3.Rows) != 4 {
		t.Fatalf("Table3 rows = %d", len(t3.Rows))
	}
	t4 := e.Table4()
	if len(t4.Rows) != 6 {
		t.Fatalf("Table4 rows = %d", len(t4.Rows))
	}
	t6 := e.Table6()
	if len(t6.Rows) != 4 {
		t.Fatalf("Table6 rows = %d", len(t6.Rows))
	}
}

func TestExperimentCampaigns(t *testing.T) {
	e := smallExperiments()
	t7 := e.Table7()
	// 4 aggregate rows + 16 EU-NET set rows.
	if len(t7.Rows) != 4+16 {
		t.Fatalf("Table7 rows = %d", len(t7.Rows))
	}
	f7 := e.Figure7()
	if len(f7.Series) != 9 {
		t.Errorf("Figure7 series = %d", len(f7.Series))
	}
	// Discovery curves are monotone nondecreasing.
	for _, s := range f7.Series {
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] < s.Y[i-1] {
				t.Fatalf("discovery curve %s decreased", s.Name)
			}
		}
	}
	f8a, f8b := e.Figure8()
	if len(f8a.Series) != 8 || len(f8b.Series) != 9 {
		t.Errorf("Figure8 series = %d/%d", len(f8a.Series), len(f8b.Series))
	}
}

// TestFacadeShardedCampaignMatches: the facade-level sharded run must
// reproduce the single-instance run exactly — interfaces, paths,
// counters — while reporting the per-shard breakdown.
func TestFacadeShardedCampaignMatches(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	run := func(shards int) *Result {
		in := NewSmallInternet(3)
		v := in.NewVantage("shard-test")
		targets, err := in.TargetSet("caida", 64, "lowbyte1", 0.2)
		if err != nil {
			t.Fatal(err)
		}
		res, err := v.RunYarrp6(targets, YarrpOptions{Rate: 2000, MaxTTL: 12, Key: 1, Fill: true, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	single := run(1)
	sharded := run(4)
	if sharded.ProbesSent != single.ProbesSent || sharded.Fills != single.Fills ||
		sharded.Replies != single.Replies {
		t.Fatalf("sharded counters %d/%d/%d differ from single %d/%d/%d",
			sharded.ProbesSent, sharded.Fills, sharded.Replies,
			single.ProbesSent, single.Fills, single.Replies)
	}
	if !sharded.Store().Equal(single.Store()) {
		t.Fatal("sharded store differs from single-instance store")
	}
	if len(sharded.ShardStats) != 4 || len(single.ShardStats) != 0 {
		t.Fatalf("shard stats lengths: %d and %d", len(sharded.ShardStats), len(single.ShardStats))
	}
	for _, a := range single.Interfaces() {
		if !sharded.Discovered(a) {
			t.Fatalf("interface %s missing from sharded result", a)
		}
	}
}

// TestExperimentWorkersEquality: the campaign matrix and the graph
// study rendered with concurrent supervisor workers must be
// byte-identical to the serial rendering — campaigns are isolated, so
// parallelism is invisible in the artifacts.
func TestExperimentWorkersEquality(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	render := func(workers int) (string, string, string) {
		e := NewExperiments(ExpOptions{Seed: 7, Scale: 0.1, Small: true, Rate: 2000, Workers: workers})
		return e.Table7().Render(), e.Figure6().Render(), e.GraphStudy().Render()
	}
	t1, f1, g1 := render(1)
	t4, f4, g4 := render(4)
	if t1 != t4 {
		t.Error("Table 7 differs between 1 and 4 workers")
	}
	if f1 != f4 {
		t.Error("Figure 6 differs between 1 and 4 workers")
	}
	if g1 != g4 {
		t.Error("graph study differs between 1 and 4 workers")
	}
}

func TestFacadeAliasWorkflow(t *testing.T) {
	in := NewSmallInternet(6)
	truth := in.AliasedGroundTruth(10)
	if len(truth) == 0 {
		t.Fatal("no ground-truth aliased /64s")
	}

	// An alias-polluted target list: a z64 set plus several members per
	// ground-truth aliased LAN, the way known-address hitlists look.
	targets, err := in.TargetSet("fdns_any", 64, "fixediid", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	polluted := len(targets)
	for _, p := range truth {
		for iid := uint64(1); iid <= 3; iid++ {
			targets = append(targets, ipv6.WithIID(p.Addr(), iid))
		}
	}

	v := in.NewVantage("alias-workflow")
	cands := AliasCandidates(targets)
	aliases := v.DetectAliases(cands, AliasOptions{})
	if aliases.Len() == 0 {
		t.Fatal("no aliases detected")
	}
	if aliases.ProbesSent() == 0 || aliases.Tested() != len(cands) {
		t.Errorf("probes=%d tested=%d of %d", aliases.ProbesSent(), aliases.Tested(), len(cands))
	}
	// Every ground-truth LAN we injected members into must be caught.
	caught := 0
	for _, p := range truth {
		if aliases.Contains(p.Addr()) {
			caught++
		}
	}
	if caught < len(truth)*9/10 {
		t.Errorf("caught %d/%d injected aliased LANs", caught, len(truth))
	}

	kept, stats := DealiasTargets(targets, aliases)
	if len(kept) >= len(targets) {
		t.Errorf("dealias did not shrink the set: %d → %d", len(targets), len(kept))
	}
	if stats.Dropped < 3*caught {
		t.Errorf("dropped %d members, expected at least %d", stats.Dropped, 3*caught)
	}
	for _, a := range kept {
		if aliases.Contains(a) {
			t.Fatalf("kept target %s inside an aliased prefix", a)
		}
	}
	t.Logf("targets %d (+%d injected) → %d kept; %d aliased prefixes, %d probes",
		polluted, len(targets)-polluted, len(kept), aliases.Len(), aliases.ProbesSent())
}

func TestExperimentAliasStudy(t *testing.T) {
	e := smallExperiments()
	tbl := e.AliasStudy()
	if len(tbl.Rows) != 2 {
		t.Fatalf("AliasStudy rows = %d, want 2", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if len(row) != 9 {
			t.Fatalf("AliasStudy row width = %d", len(row))
		}
	}
}

// TestAdaptiveYield holds the closed-loop generator to its purpose:
// spending a 4 096-probe budget it must discover at least 1.1× the
// unique interfaces of the paper's best static pipeline (lowbyte /64
// synthesis over the same dnsdb seeds, capped at the budget; at this
// scale the list is shorter and sends 1 664 probes). Both runs are
// virtual-time deterministic, so the ratio is exact on any host.
func TestAdaptiveYield(t *testing.T) {
	const (
		budget   = 4096
		maxTTL   = 16
		minRatio = 1.1
	)
	in := NewSmallInternet(2018)
	list, err := in.SeedList("dnsdb", 0.15)
	if err != nil {
		t.Fatal(err)
	}
	static, err := in.TargetSet("dnsdb", 64, "lowbyte1", 0.15)
	if err != nil {
		t.Fatal(err)
	}
	static = static[:min(len(static), budget/maxTTL)]
	opt := YarrpOptions{Rate: 10000, MaxTTL: maxTTL, Key: 0xada7}
	in.Reset()
	sres, err := in.NewVantageAt("adaptive-bench", "hosting", 3).RunYarrp6(static, opt)
	if err != nil {
		t.Fatal(err)
	}
	in.Reset()
	opt.Adaptive = &AdaptiveOptions{Budget: budget}
	ares, err := in.NewVantageAt("adaptive-bench", "hosting", 3).RunYarrp6(list.Addrs.Addrs(), opt)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(ares.NumInterfaces()) / float64(sres.NumInterfaces())
	t.Logf("adaptive %d interfaces in %d probes over %d epochs, static %d in %d: ratio %.3f",
		ares.NumInterfaces(), ares.ProbesSent, len(ares.Epochs), sres.NumInterfaces(), sres.ProbesSent, ratio)
	if ratio < minRatio {
		t.Fatalf("adaptive/static discovery ratio %.3f below %.1f", ratio, minRatio)
	}
}
