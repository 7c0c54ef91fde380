package target

import (
	"math/rand"
	"net/netip"
	"testing"

	"beholder/internal/ipv6"
	"beholder/internal/seeds"
)

func addrList(ss ...string) seeds.List {
	addrs := make([]netip.Addr, len(ss))
	for i, s := range ss {
		addrs[i] = netip.MustParseAddr(s)
	}
	return seeds.List{Name: "test", Addrs: ipv6.NewSet(addrs)}
}

func prefixList(ss ...string) seeds.List {
	ps := make([]netip.Prefix, len(ss))
	for i, s := range ss {
		ps[i] = netip.MustParsePrefix(s)
	}
	return seeds.List{Name: "test", Prefixes: ipv6.NewPrefixSet(ps)}
}

func TestBuildDeterminism(t *testing.T) {
	list := addrList("2400:1:2:3::5", "2400:1:2:4::9", "2400:a:b:c::1", "2600:1:2:3::7")
	for _, synth := range []Synth{LowByte1, FixedIID, RandomIID, Known} {
		a := Build(list, Spec{SeedName: "test", ZN: 64, Synth: synth}, rand.New(rand.NewSource(9)))
		b := Build(list, Spec{SeedName: "test", ZN: 64, Synth: synth}, rand.New(rand.NewSource(9)))
		if a.Targets.Len() != b.Targets.Len() {
			t.Fatalf("%s: sizes differ: %d vs %d", synth, a.Targets.Len(), b.Targets.Len())
		}
		for i, x := range a.Targets.Addrs() {
			if x != b.Targets.At(i) {
				t.Fatalf("%s: member %d differs: %s vs %s", synth, i, x, b.Targets.At(i))
			}
		}
	}
	// Input ordering must not matter: the rng is consumed in sorted-
	// prefix order.
	rev := addrList("2600:1:2:3::7", "2400:a:b:c::1", "2400:1:2:4::9", "2400:1:2:3::5")
	a := Build(list, Spec{SeedName: "test", ZN: 64, Synth: RandomIID}, rand.New(rand.NewSource(3)))
	b := Build(rev, Spec{SeedName: "test", ZN: 64, Synth: RandomIID}, rand.New(rand.NewSource(3)))
	for i, x := range a.Targets.Addrs() {
		if x != b.Targets.At(i) {
			t.Fatalf("order-dependent RandomIID output at %d", i)
		}
	}
}

func TestZNTransformation(t *testing.T) {
	// Two addresses sharing a /48 but in distinct /64s.
	list := addrList("2400:1:2:3::5", "2400:1:2:4::9")
	cases := []struct {
		zn   int
		want int
	}{
		{40, 1}, {48, 1}, {56, 1}, {64, 2},
	}
	for _, c := range cases {
		set := Build(list, Spec{SeedName: "test", ZN: c.zn, Synth: LowByte1}, rand.New(rand.NewSource(1)))
		if set.Targets.Len() != c.want {
			t.Errorf("z%d: %d targets, want %d", c.zn, set.Targets.Len(), c.want)
		}
		// Every target's covering /zn must cover a seed, and the IID
		// must be the synthesized ::1.
		for _, a := range set.Targets.Addrs() {
			if ipv6.IID(a) != 1 {
				t.Errorf("z%d: IID %#x, want 1", c.zn, ipv6.IID(a))
			}
			p := ipv6.Extend(netip.PrefixFrom(a, 128), c.zn)
			covered := false
			for _, s := range list.Addrs.Addrs() {
				if p.Contains(s) {
					covered = true
				}
			}
			if !covered {
				t.Errorf("z%d target %s covers no seed", c.zn, a)
			}
		}
	}
	// Boundary: z48 base of the shared prefix is exact.
	set := Build(list, Spec{SeedName: "test", ZN: 48, Synth: LowByte1}, rand.New(rand.NewSource(1)))
	if got, want := set.Targets.At(0), netip.MustParseAddr("2400:1:2::1"); got != want {
		t.Errorf("z48 target = %s, want %s", got, want)
	}
}

func TestSynthModes(t *testing.T) {
	list := addrList("2400:1:2:3::5", "2400:9:8:7::6")
	rng := rand.New(rand.NewSource(4))

	lb := Build(list, Spec{SeedName: "test", ZN: 64, Synth: LowByte1}, rng)
	for _, a := range lb.Targets.Addrs() {
		if ipv6.IID(a) != 1 {
			t.Errorf("lowbyte1 IID = %#x", ipv6.IID(a))
		}
	}

	fx := Build(list, Spec{SeedName: "test", ZN: 64, Synth: FixedIID}, rng)
	for _, a := range fx.Targets.Addrs() {
		if ipv6.IID(a) != FixedIIDValue {
			t.Errorf("fixediid IID = %#x, want %#x", ipv6.IID(a), FixedIIDValue)
		}
	}
	if ipv6.IsEUI64IID(FixedIIDValue) {
		t.Error("FixedIIDValue carries the EUI-64 marker")
	}

	rd := Build(list, Spec{SeedName: "test", ZN: 64, Synth: RandomIID}, rand.New(rand.NewSource(5)))
	if rd.Targets.Len() != 2 {
		t.Fatalf("randomiid targets = %d", rd.Targets.Len())
	}
	if ipv6.IID(rd.Targets.At(0)) == ipv6.IID(rd.Targets.At(1)) {
		t.Error("randomiid drew identical IIDs for distinct prefixes")
	}

	kn := Build(list, Spec{SeedName: "test", ZN: 0, Synth: Known}, rng)
	if kn.Targets.Len() != 2 || !kn.Targets.Contains(netip.MustParseAddr("2400:1:2:3::5")) {
		t.Error("known synthesis did not pass seeds through")
	}
}

func TestPrefixListInput(t *testing.T) {
	// CDN-style aggregates: a /56 (shorter than z64) and two /64s
	// sharing a /48.
	list := prefixList("2400:5:5:500::/56", "2400:7:7:1::/64", "2400:7:7:2::/64")
	z64 := Build(list, Spec{SeedName: "cdn", ZN: 64, Synth: FixedIID}, rand.New(rand.NewSource(1)))
	if z64.Targets.Len() != 3 {
		t.Errorf("z64 targets = %d, want 3 (aggregate extends to its base /64)", z64.Targets.Len())
	}
	if !z64.Targets.Contains(ipv6.WithIID(netip.MustParseAddr("2400:5:5:500::"), FixedIIDValue)) {
		t.Error("short aggregate did not extend to its base /64")
	}
	z48 := Build(list, Spec{SeedName: "cdn", ZN: 48, Synth: FixedIID}, rand.New(rand.NewSource(1)))
	if z48.Targets.Len() != 2 {
		t.Errorf("z48 targets = %d, want 2 (the two /64s aggregate up)", z48.Targets.Len())
	}
}

// TestMixedListBases: a list with both addresses and prefixes gives two
// sorted runs of /zn bases, interleaved and overlapping; the bases are
// their merge, each once, and RandomIID draws in that order.
func TestMixedListBases(t *testing.T) {
	list := addrList("2400:1:2:3::5", "2400:7:7:1::9", "2600:1::1")
	list.Prefixes = prefixList("2400:5:5:500::/56", "2400:7:7:1::/64", "2500::/32").Prefixes
	want := []string{"2400:1:2:3::", "2400:5:5:500::", "2400:7:7:1::", "2500::", "2600:1::"}
	for _, synth := range []Synth{LowByte1, RandomIID} {
		got := Build(list, Spec{SeedName: "mixed", ZN: 64, Synth: synth}, rand.New(rand.NewSource(4)))
		rng := rand.New(rand.NewSource(4))
		if got.Targets.Len() != len(want) {
			t.Fatalf("%s: %d targets %v, want %d", synth, got.Targets.Len(), got.Targets.Addrs(), len(want))
		}
		for i, w := range want {
			iid := uint64(1)
			if synth == RandomIID {
				iid = rng.Uint64()
			}
			if wa := ipv6.WithIID(netip.MustParseAddr(w), iid); got.Targets.At(i) != wa {
				t.Errorf("%s: target %d = %v, want %v", synth, i, got.Targets.At(i), wa)
			}
		}
	}
}

func TestCombine(t *testing.T) {
	a := Build(addrList("2400:1:2:3::5"), Spec{SeedName: "a", ZN: 64, Synth: LowByte1}, rand.New(rand.NewSource(1)))
	b := Build(addrList("2400:1:2:3::9", "2400:f:e:d::1"), Spec{SeedName: "b", ZN: 64, Synth: LowByte1}, rand.New(rand.NewSource(1)))
	c := Combine("combined", 64, LowByte1, a, b)
	if c.Targets.Len() != 2 {
		t.Errorf("combined = %d targets, want 2 (shared /64 dedupes)", c.Targets.Len())
	}
	if c.Name() != "combined-z64-lowbyte1" {
		t.Errorf("name = %q", c.Name())
	}
}

func TestSpecName(t *testing.T) {
	if got := (Spec{SeedName: "caida", ZN: 64, Synth: FixedIID}).Name(); got != "caida-z64-fixediid" {
		t.Errorf("Name = %q", got)
	}
	if got := (Spec{SeedName: "fiebig", Synth: Known}).Name(); got != "fiebig-known" {
		t.Errorf("known Name = %q", got)
	}
}
