package subnet

import (
	"net/netip"
	"testing"

	"beholder/internal/bgp"
	"beholder/internal/ipv6"
	"beholder/internal/probe"
)

// buildTable creates a small RIB: one target AS (100) with a /32, the
// vantage AS (10), and a transit AS (50) numbering its routers from RIR
// space.
func buildTable() *bgp.Table {
	t := bgp.NewTable()
	t.Announce(ipv6.MustPrefix("2400:100::/32"), 100)
	t.Announce(ipv6.MustPrefix("2400:10::/32"), 10)
	t.Announce(ipv6.MustPrefix("2400:50::/32"), 50)
	t.AddRIR(ipv6.MustPrefix("2a00:50::/32"), 50)
	return t
}

// mkTrace assembles a trace with the given hops (ttl 1..n in order).
func mkTrace(store *probe.Store, target string, hops ...string) {
	for i, h := range hops {
		if h == "" {
			continue // missing hop
		}
		store.Add(probe.Reply{
			From:           ipv6.MustAddr(h),
			Target:         ipv6.MustAddr(target),
			Kind:           probe.KindTimeExceeded,
			TTL:            uint8(i + 1),
			StateRecovered: true,
		})
	}
}

func TestDivergentPairAccepted(t *testing.T) {
	table := buildTable()
	store := probe.NewStore(true)
	// Two targets in AS 100, sharing three hops (one inside the target
	// AS), then diverging inside the target AS.
	mkTrace(store, "2400:100:0:1::1",
		"2400:10::1", "2400:50::1", "2400:100::1", "2400:100:0:1::ff")
	mkTrace(store, "2400:100:0:2::1",
		"2400:10::1", "2400:50::1", "2400:100::1", "2400:100:0:2::ff")

	res := Discover(store, table, 10)
	if res.PairsAccepted != 1 {
		t.Fatalf("pairs accepted = %d want 1", res.PairsAccepted)
	}
	// Targets differ first within bits 49..64 region: DPL = 63 (they
	// differ at ::1 vs ::2 of the fourth group: bits 49-64). 0:1 vs 0:2
	// differ at bit 63 (0001 vs 0010 in the last 16-bit group).
	want := ipv6.PairDPL(ipv6.MustAddr("2400:100:0:1::1"), ipv6.MustAddr("2400:100:0:2::1"))
	found := false
	for _, c := range res.Candidates {
		if c.MinLen == want {
			found = true
		}
	}
	if !found {
		t.Errorf("no candidate with MinLen %d: %+v", want, res.Candidates)
	}
}

func TestRejectShortLCS(t *testing.T) {
	table := buildTable()
	store := probe.NewStore(true)
	// Divergence at TTL 2: only one common hop.
	mkTrace(store, "2400:100:0:1::1", "2400:10::1", "2400:100:0:1::ff")
	mkTrace(store, "2400:100:0:2::1", "2400:10::1", "2400:100:0:2::ff")
	res := Discover(store, table, 10)
	if res.PairsAccepted != 0 {
		t.Errorf("short LCS accepted")
	}
}

func TestRejectMissingHopInLCS(t *testing.T) {
	table := buildTable()
	store := probe.NewStore(true)
	// Hop 2 missing in one path: LCS contiguity broken (only hop 3
	// common before the divergence at 4).
	mkTrace(store, "2400:100:0:1::1",
		"2400:10::1", "", "2400:100::1", "2400:100:0:1::ff")
	mkTrace(store, "2400:100:0:2::1",
		"2400:10::1", "2400:50::1", "2400:100::1", "2400:100:0:2::ff")
	res := Discover(store, table, 10)
	if res.PairsAccepted != 0 {
		t.Errorf("LCS with missing hop accepted")
	}
}

func TestRejectDifferentTargetASN(t *testing.T) {
	table := buildTable()
	table.Announce(ipv6.MustPrefix("2400:200::/32"), 200)
	store := probe.NewStore(true)
	mkTrace(store, "2400:100:0:1::1",
		"2400:10::1", "2400:50::1", "2400:100::1", "2400:100:0:1::ff")
	mkTrace(store, "2400:200:0:1::1",
		"2400:10::1", "2400:50::1", "2400:100::1", "2400:200:0:1::ff")
	res := Discover(store, table, 10)
	if res.PairsAccepted != 0 {
		t.Errorf("cross-ASN pair accepted")
	}
}

func TestEquivalentASNsAccepted(t *testing.T) {
	// Same organization, two ASNs: with the equivalence recorded the
	// pair qualifies (the paper's Comcast/Charter case).
	table := buildTable()
	table.Announce(ipv6.MustPrefix("2400:200::/32"), 200)
	table.AddEquivalent(100, 200)
	store := probe.NewStore(true)
	mkTrace(store, "2400:100:ffff::1",
		"2400:10::1", "2400:50::1", "2400:100::1", "2400:100:ffff::ff")
	mkTrace(store, "2400:200:0:1::1",
		"2400:10::1", "2400:50::1", "2400:100::1", "2400:200:0:1::ff")
	res := Discover(store, table, 10)
	if res.PairsAccepted != 1 {
		t.Errorf("equivalent-ASN pair rejected")
	}
}

func TestRIRResolvedLCSHops(t *testing.T) {
	// The common path's target-AS hop is numbered from unadvertised RIR
	// space (2a00:50::/32 belongs to AS 50): without RIR augmentation C=1
	// would fail for AS-50 targets.
	table := buildTable()
	store := probe.NewStore(true)
	mkTrace(store, "2400:50:0:1::1",
		"2400:10::1", "2a00:50::1", "2a00:50::2", "2400:50:0:1::ff")
	mkTrace(store, "2400:50:0:2::1",
		"2400:10::1", "2a00:50::1", "2a00:50::2", "2400:50:0:2::ff")
	res := Discover(store, table, 10)
	if res.PairsAccepted != 1 {
		t.Errorf("RIR-numbered LCS rejected: %+v", res)
	}
}

func TestRejectLastLCSHopInVantageAS(t *testing.T) {
	table := buildTable()
	store := probe.NewStore(true)
	// All common hops inside the vantage AS (10): divergence right at
	// the vantage edge must not count (A=1).
	mkTrace(store, "2400:100:0:1::1",
		"2400:10::1", "2400:10::2", "2400:100:0:1::ff")
	mkTrace(store, "2400:100:0:2::1",
		"2400:10::1", "2400:10::2", "2400:100:0:2::ff")
	res := Discover(store, table, 10)
	if res.PairsAccepted != 0 {
		t.Errorf("vantage-AS divergence accepted")
	}
}

func TestIAHack(t *testing.T) {
	table := buildTable()
	store := probe.NewStore(true)
	// Last hop is the ::1 gateway of the target's own /64.
	mkTrace(store, "2400:100:0:1:1234:5678:1234:5678",
		"2400:10::1", "2400:50::1", "2400:100:0:1::1")
	res := Discover(store, table, 10)
	if res.IAHackCount != 1 {
		t.Fatalf("IA hack count = %d", res.IAHackCount)
	}
	found := false
	for _, c := range res.Candidates {
		if c.IAHack && c.Prefix == ipv6.MustPrefix("2400:100:0:1::/64") {
			found = true
		}
	}
	if !found {
		t.Errorf("no exact /64 candidate: %+v", res.Candidates)
	}
}

func TestIAHackRequiresMatchingPrefix(t *testing.T) {
	table := buildTable()
	store := probe.NewStore(true)
	// Last hop ::1 but in a different /64: not pinned.
	mkTrace(store, "2400:100:0:1:1234:5678:1234:5678",
		"2400:10::1", "2400:50::1", "2400:100:0:2::1")
	res := Discover(store, table, 10)
	if res.IAHackCount != 0 {
		t.Errorf("IA hack misfired")
	}
}

func TestValidate(t *testing.T) {
	truth := []netip.Prefix{
		ipv6.MustPrefix("2400:100:0:1::/64"),
		ipv6.MustPrefix("2400:100:a::/48"),
		ipv6.MustPrefix("2400:100:b::/48"),
	}
	cands := []Candidate{
		{Prefix: ipv6.MustPrefix("2400:100:0:1::/64"), MinLen: 64}, // exact
		{Prefix: ipv6.MustPrefix("2400:100:a:0::/56"), MinLen: 56}, // more specific
		{Prefix: ipv6.MustPrefix("2400:100:b::/47"), MinLen: 47},   // short by one
		{Prefix: ipv6.MustPrefix("2620:99::/48"), MinLen: 48},      // outside truth
	}
	rep := Validate(cands, truth)
	if rep.ExactMatches != 1 {
		t.Errorf("exact = %d", rep.ExactMatches)
	}
	if rep.MoreSpecifics != 1 {
		t.Errorf("more specifics = %d", rep.MoreSpecifics)
	}
	if rep.ShortByOne != 1 {
		t.Errorf("short by one = %d", rep.ShortByOne)
	}
	if rep.TruthCovered != 2 {
		t.Errorf("truth covered = %d", rep.TruthCovered)
	}
}

func TestStratifiedSample(t *testing.T) {
	truth := []netip.Prefix{
		ipv6.MustPrefix("2400:100:0:1::/64"),
		ipv6.MustPrefix("2400:100:0:2::/64"),
	}
	targets := []netip.Addr{
		ipv6.MustAddr("2400:100:0:1::a"),
		ipv6.MustAddr("2400:100:0:1::b"), // same truth subnet: dropped
		ipv6.MustAddr("2400:100:0:2::a"),
		ipv6.MustAddr("2620:1::1"), // outside truth: dropped
	}
	got := StratifiedSample(targets, truth)
	if len(got) != 2 {
		t.Fatalf("sample = %v", got)
	}
}

func TestCandidateDPLCappedAt64(t *testing.T) {
	table := buildTable()
	store := probe.NewStore(true)
	// Targets within the same /64 (DPL > 64): candidates must cap at 64.
	mkTrace(store, "2400:100:0:1::a",
		"2400:10::1", "2400:50::1", "2400:100::1", "2400:100:0:1::fe")
	mkTrace(store, "2400:100:0:1::b",
		"2400:10::1", "2400:50::1", "2400:100::1", "2400:100:0:9::fe")
	res := Discover(store, table, 10)
	for _, c := range res.Candidates {
		if c.MinLen > 64 {
			t.Errorf("candidate beyond /64: %+v", c)
		}
	}
}
