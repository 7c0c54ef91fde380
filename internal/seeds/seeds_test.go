package seeds

import (
	"math/rand"
	"net/netip"
	"slices"
	"testing"

	"beholder/internal/addrclass"
	"beholder/internal/ipv6"
	"beholder/internal/netsim"
)

func universe(t testing.TB) *netsim.Universe {
	t.Helper()
	return netsim.NewUniverse(netsim.TestConfig(99))
}

func TestCAIDAStructure(t *testing.T) {
	u := universe(t)
	l := CAIDA(u, rand.New(rand.NewSource(1)))
	if l.Addrs.Len() == 0 {
		t.Fatal("empty caida list")
	}
	// Roughly two addresses per advertised prefix (dedup may collapse a
	// few), and the IID mix near half lowbyte, half random (Table 1).
	nPfx := u.Table().NumPrefixes()
	if l.Addrs.Len() < nPfx || l.Addrs.Len() > 2*nPfx {
		t.Errorf("caida size %d for %d prefixes", l.Addrs.Len(), nPfx)
	}
	c := addrclass.ClassifySet(l.Addrs)
	low := c.Fraction(addrclass.ClassLowByte)
	if low < 0.35 || low > 0.65 {
		t.Errorf("caida lowbyte fraction %.2f, want ~0.5", low)
	}
	if c.ByClass[addrclass.ClassEUI64] > l.Addrs.Len()/100 {
		t.Errorf("caida EUI-64 count %d, want ~0", c.ByClass[addrclass.ClassEUI64])
	}
	// All caida seeds are routed by construction.
	for _, a := range l.Addrs.Addrs()[:min(200, l.Addrs.Len())] {
		if !u.Table().Routed(a) {
			t.Fatalf("caida seed %s unrouted", a)
		}
	}
}

func TestFiebigDenseAndPartlyUnrouted(t *testing.T) {
	u := universe(t)
	l := Fiebig(u, rand.New(rand.NewSource(2)), 0.5)
	if l.Addrs.Len() == 0 {
		t.Fatal("empty fiebig list")
	}
	unrouted := 0
	for _, a := range l.Addrs.Addrs() {
		if !u.Table().Routed(a) {
			unrouted++
		}
	}
	if unrouted == 0 {
		t.Error("fiebig should include unrouted infrastructure PTR space")
	}
	// Density: rDNS walks enumerate entire LANs, so a large share of
	// addresses share their /64 with another seed (DPL > 64).
	dpls := ipv6.DPLs(l.Addrs)
	dense := 0
	for _, d := range dpls {
		if d > 64 {
			dense++
		}
	}
	if float64(dense) < 0.4*float64(len(dpls)) {
		t.Errorf("fiebig same-/64 density %.2f, want >= 0.4", float64(dense)/float64(len(dpls)))
	}
}

func TestFDNSHas6to4AndServiceIIDs(t *testing.T) {
	u := universe(t)
	l := FDNS(u, rand.New(rand.NewSource(3)), 0.5)
	sixTo4 := 0
	for _, a := range l.Addrs.Addrs() {
		if ipv6.Is6to4(a) {
			sixTo4++
		}
	}
	if sixTo4 == 0 {
		t.Error("fdns lacks 6to4 pollution")
	}
	c := addrclass.ClassifySet(l.Addrs)
	if c.ByClass[addrclass.ClassLowByte] == 0 {
		t.Error("fdns lacks lowbyte servers")
	}
	if c.ByClass[addrclass.ClassEmbedPort]+c.ByClass[addrclass.ClassEmbedIPv4] == 0 {
		t.Error("fdns lacks service-patterned IIDs")
	}
}

func TestCDNPublishesOnlyPrefixes(t *testing.T) {
	u := universe(t)
	k32, err := Build(u, 4, "cdn-k32", 1)
	if err != nil {
		t.Fatal(err)
	}
	k256, err := Build(u, 4, "cdn-k256", 1)
	if err != nil {
		t.Fatal(err)
	}
	if k32.Addrs != nil {
		t.Error("cdn must not publish client addresses")
	}
	if k32.Prefixes.Len() == 0 {
		t.Fatal("cdn-k32 empty (increase scale)")
	}
	// Larger k → stronger anonymity → no more aggregates than smaller k,
	// and no aggregate may be longer than /64.
	if k256.Prefixes.Len() > k32.Prefixes.Len() {
		t.Errorf("k256 aggregates %d > k32 %d", k256.Prefixes.Len(), k32.Prefixes.Len())
	}
	for _, p := range k32.Prefixes.Prefixes() {
		if p.Bits() > 64 {
			t.Errorf("aggregate %s longer than /64", p)
		}
	}
}

func TestSixGenConcentratesNearSeeds(t *testing.T) {
	u := universe(t)
	l := SixGen(u, rand.New(rand.NewSource(5)), 0.5)
	if l.Addrs.Len() == 0 {
		t.Fatal("empty 6gen list")
	}
	// Generated targets live overwhelmingly in routed space (the inputs
	// were routed addresses and loose wildcards stay within their high
	// nybble pattern).
	routed := 0
	for _, a := range l.Addrs.Addrs() {
		if u.Table().Routed(a) {
			routed++
		}
	}
	if frac := float64(routed) / float64(l.Addrs.Len()); frac < 0.8 {
		t.Errorf("6gen routed fraction %.2f", frac)
	}
}

func TestTUMUnionAndSubsets(t *testing.T) {
	u := universe(t)
	l, subsets := TUM(u, rand.New(rand.NewSource(6)), 0.5)
	if len(subsets) < 5 {
		t.Fatalf("only %d TUM subsets", len(subsets))
	}
	total := 0
	for _, s := range subsets {
		if s.Count < 0 {
			t.Errorf("subset %s negative count", s.Name)
		}
		total += s.Count
	}
	if l.Addrs.Len() >= total {
		t.Errorf("union %d not smaller than subset sum %d (no overlap?)", l.Addrs.Len(), total)
	}
	if l.Addrs.Len() == 0 {
		t.Fatal("empty tum union")
	}
}

func TestRandomControl(t *testing.T) {
	u := universe(t)
	l := Random(u, rand.New(rand.NewSource(7)), 5000)
	if l.Addrs.Len() < 4900 {
		t.Fatalf("random list %d of 5000 (unexpected dedup)", l.Addrs.Len())
	}
	for _, a := range l.Addrs.Addrs()[:200] {
		if !u.Table().Routed(a) {
			t.Fatalf("random seed %s unrouted", a)
		}
	}
	// Almost no lowbyte (Table 1: 0.36%).
	c := addrclass.ClassifySet(l.Addrs)
	if f := c.Fraction(addrclass.ClassLowByte); f > 0.02 {
		t.Errorf("random lowbyte fraction %.3f", f)
	}
}

func TestAllDeterminism(t *testing.T) {
	u := universe(t)
	a, _ := All(u, 11, 0.25)
	b, _ := All(u, 11, 0.25)
	for name, la := range a {
		lb := b[name]
		sizeA, sizeB := 0, 0
		if la.Addrs != nil {
			sizeA, sizeB = la.Addrs.Len(), lb.Addrs.Len()
		} else {
			sizeA, sizeB = la.Prefixes.Len(), lb.Prefixes.Len()
		}
		if sizeA != sizeB {
			t.Errorf("%s: %d vs %d for same seed", name, sizeA, sizeB)
		}
	}
	c, _ := All(u, 12, 0.25)
	if c["random"].Addrs.Len() == a["random"].Addrs.Len() &&
		c["random"].Addrs.At(0) == a["random"].Addrs.At(0) {
		t.Error("different seeds produced identical random lists")
	}
}

func TestAllListsPopulated(t *testing.T) {
	u := universe(t)
	lists, subsets := All(u, 13, 0.25)
	for _, name := range []string{"caida", "fiebig", "fdns_any", "dnsdb", "cdn-k32", "cdn-k256", "6gen", "tum", "random"} {
		l, ok := lists[name]
		if !ok {
			t.Errorf("missing list %s", name)
			continue
		}
		size := 0
		if l.Addrs != nil {
			size = l.Addrs.Len()
		}
		if l.Prefixes != nil {
			size += l.Prefixes.Len()
		}
		if size == 0 {
			t.Errorf("list %s empty", name)
		}
	}
	if len(subsets) == 0 {
		t.Error("no TUM subsets")
	}
}

// TestBuildMatchesAll: every list built alone by Build equals All's
// entry element for element — its RNG stream, the CDN lists' shared
// observation pass and TUM's subsets do not depend on the other lists.
func TestBuildMatchesAll(t *testing.T) {
	u := universe(t)
	for _, scale := range []Scale{0.25, 1} {
		all, _ := All(u, 13, scale)
		for name, want := range all {
			got, err := Build(u, 13, name, scale)
			if err != nil {
				t.Fatal(err)
			}
			if got.Name != name || got.Name != want.Name || got.Method != want.Method {
				t.Errorf("scale %v %s: built %q (%s), All has %q (%s)", scale, name, got.Name, got.Method, want.Name, want.Method)
			}
			if !slices.Equal(addrsOf(got), addrsOf(want)) {
				t.Errorf("scale %v %s: addresses differ from All's", scale, name)
			}
			if !slices.Equal(prefixesOf(got), prefixesOf(want)) {
				t.Errorf("scale %v %s: prefixes differ from All's", scale, name)
			}
		}
	}
	if _, err := Build(u, 13, "nope", 1); err == nil {
		t.Error("Build accepted an unknown list name")
	}
}

func addrsOf(l List) []netip.Addr {
	if l.Addrs == nil {
		return nil
	}
	return l.Addrs.Addrs()
}

func prefixesOf(l List) []netip.Prefix {
	if l.Prefixes == nil {
		return nil
	}
	return l.Prefixes.Prefixes()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
