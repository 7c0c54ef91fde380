package ipv6

import (
	"encoding/binary"
	"net/netip"
	"slices"
	"sort"
	"testing"
)

// fuzzAddrs decodes data as 16-byte addresses, dropping a trailing
// partial one.
func fuzzAddrs(data []byte) []netip.Addr {
	out := make([]netip.Addr, 0, len(data)/16)
	for ; len(data) >= 16; data = data[16:] {
		out = append(out, netip.AddrFrom16([16]byte(data[:16])))
	}
	return out
}

// encodeKeys is fuzzAddrs' inverse, for building seeds.
func encodeKeys(keys []U128) []byte {
	var out []byte
	for _, k := range keys {
		out = binary.BigEndian.AppendUint64(out, k.Hi)
		out = binary.BigEndian.AppendUint64(out, k.Lo)
	}
	return out
}

// referenceSet is the sort the package used to run: sort.Slice with
// netip.Addr.Less, then a sweep of equal neighbours.
func referenceSet(addrs []netip.Addr) []netip.Addr {
	ref := slices.Clone(addrs)
	sort.Slice(ref, func(i, j int) bool { return ref[i].Less(ref[j]) })
	return slices.Compact(ref)
}

func FuzzNewSet(f *testing.F) {
	var sorted, rev, dups, one64 []U128
	for i := uint64(0); i < 40; i++ {
		sorted = append(sorted, U128{0x2001_0db8_0000_0000 | i>>3, i * 0x9e3779b97f4a7c15})
		dups = append(dups, U128{0x2400_0000_0000_0000 | i%5, i % 7})
		one64 = append(one64, U128{0x2600_0000_0000_0001, i * 0x2545f4914f6cdd1d})
	}
	slices.SortFunc(sorted, U128.Cmp)
	rev = slices.Clone(sorted)
	slices.Reverse(rev)
	for _, seed := range [][]U128{sorted, rev, dups, one64, append(slices.Clone(sorted), rev...), {{^uint64(0), ^uint64(0)}, {}, {1 << 63, 0}}} {
		f.Add(encodeKeys(seed), uint16(len(seed)/3))
	}
	f.Fuzz(func(t *testing.T, data []byte, split uint16) {
		addrs := fuzzAddrs(data)
		want := referenceSet(addrs)
		s := NewSet(addrs)
		if !slices.Equal(s.Addrs(), want) {
			t.Fatalf("NewSet = %v, reference %v", s.Addrs(), want)
		}
		for i, k := range s.Keys() {
			if k.Addr() != want[i] || s.At(i) != want[i] || !s.Contains(want[i]) {
				t.Fatalf("member %d: key %v, At %v, reference %v", i, k.Addr(), s.At(i), want[i])
			}
		}
		// Union of two sets, and a three-way merge of runs, against
		// the set of their concatenation.
		cut := int(split) % (len(addrs) + 1)
		a, b := NewSet(addrs[:cut]), NewSet(addrs[cut:])
		if u := Union(a, b); !slices.Equal(u.Addrs(), want) {
			t.Fatalf("Union = %v, reference %v", u.Addrs(), want)
		}
		if u := a.Union(EmptySet()); !slices.Equal(u.Addrs(), a.Addrs()) {
			t.Fatalf("a ∪ ∅ = %v, a = %v", u.Addrs(), a.Addrs())
		}
		keys := s.Keys()
		third := len(keys) / 3
		runs := [][]U128{keys[:third], keys[third/2 : 2*third], keys[2*third:], nil}
		if got := MergeKeys(runs...); !slices.Equal(got, keys) {
			t.Fatalf("MergeKeys = %v, want %v", got, keys)
		}
	})
}

// TestNewSetAddressForm pins the members' form: a set holds 16-byte,
// zone-free addresses, so an IPv4 address enters in its IPv4-mapped form
// and a zone is dropped. No generator produces either; the facade's
// AliasCandidates and DealiasTargets are the only callers that hand a
// set addresses they did not build.
func TestNewSetAddressForm(t *testing.T) {
	s := NewSet([]netip.Addr{
		MustAddr("2001:db8::1"),
		MustAddr("192.0.2.1"),
		MustAddr("::ffff:192.0.2.1"),
		MustAddr("fe80::1%eth0"),
	})
	want := addrsOf("::ffff:192.0.2.1", "2001:db8::1", "fe80::1")
	if !slices.Equal(s.Addrs(), want) {
		t.Fatalf("members %v, want %v", s.Addrs(), want)
	}
	if s.Contains(MustAddr("192.0.2.1")) || s.Contains(MustAddr("fe80::1%eth0")) || s.Contains(netip.Addr{}) {
		t.Error("a 4-byte or zoned address is never a member")
	}
	for _, a := range want {
		if !a.Is6() || a.Zone() != "" || !s.Contains(a) {
			t.Errorf("member %v: Is6 %v, zone %q, Contains %v", a, a.Is6(), a.Zone(), s.Contains(a))
		}
	}
}

// TestSortKeysSortedInputInPlace checks that sorted keys are deduplicated
// in place, with no second slice.
func TestSortKeysSortedInputInPlace(t *testing.T) {
	keys := []U128{{1, 1}, {1, 1}, {1, 2}, {2, 0}, {2, 0}}
	got := SortKeys(keys)
	if want := []U128{{1, 1}, {1, 2}, {2, 0}}; !slices.Equal(got, want) {
		t.Fatalf("SortKeys = %v, want %v", got, want)
	}
	if &got[0] != &keys[0] {
		t.Error("sorted input was copied")
	}
	strict := []U128{{1, 1}, {1, 2}, {2, 0}}
	if got := SortKeys(strict); &got[0] != &strict[0] || len(got) != 3 {
		t.Error("strictly ascending input was not returned as is")
	}
}
