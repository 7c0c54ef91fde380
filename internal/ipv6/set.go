package ipv6

import (
	"net/netip"
	"slices"
	"sort"
	"sync"
)

// Set is an ordered, duplicate-free collection of IPv6 addresses. The
// target-generation pipeline, DPL analysis, and campaign bookkeeping all
// operate on Sets; operations preserve sortedness so that neighbor queries
// (the heart of DPL) are O(log n).
//
// Members are 16-byte, zone-free addresses, the form U128.Addr returns,
// and a set holds them as pointer-free keys: their key order is exactly
// netip.Addr.Less. NewSet stores an IPv4 address in its IPv4-mapped form
// and drops a zone, as FromAddr does; every generator in this module
// (seed lists, zn bases, synthesized IIDs) produces 16-byte, zone-free
// addresses already. The []netip.Addr form is built on the first Addrs
// call, so a seed list that only feeds target generation never has one.
type Set struct {
	keys  []U128 // sorted ascending, unique
	once  sync.Once
	addrs []netip.Addr // keys as addresses, built by the first Addrs call
}

// NewSet builds a set from addrs, sorting and deduplicating. Sorted
// input costs one linear pass (see SortKeys).
func NewSet(addrs []netip.Addr) *Set {
	keys := make([]U128, len(addrs))
	for i, a := range addrs {
		keys[i] = FromAddr(a)
	}
	return SetOfKeys(keys)
}

// SetOfKeys builds a set from address keys, sorted and deduplicated by
// SortKeys; the caller gives keys up.
func SetOfKeys(keys []U128) *Set { return &Set{keys: SortKeys(keys)} }

// EmptySet returns a set with no members.
func EmptySet() *Set { return &Set{} }

// Len returns the number of addresses in the set.
func (s *Set) Len() int { return len(s.keys) }

// At returns the i'th address in sorted order.
func (s *Set) At(i int) netip.Addr { return s.keys[i].Addr() }

// Keys returns the members as sorted keys. Callers must not mutate it.
func (s *Set) Keys() []U128 { return s.keys }

// Addrs returns the members as a sorted slice of addresses, built once
// and shared by every call. Callers must not mutate it.
func (s *Set) Addrs() []netip.Addr {
	s.once.Do(func() {
		s.addrs = make([]netip.Addr, len(s.keys))
		for i, k := range s.keys {
			s.addrs[i] = k.Addr()
		}
	})
	return s.addrs
}

// Contains reports whether a is a member. An address outside the
// members' form (4-byte, zoned) is never one.
func (s *Set) Contains(a netip.Addr) bool {
	if !a.Is6() || a.Zone() != "" {
		return false
	}
	_, ok := slices.BinarySearchFunc(s.keys, FromAddr(a), U128.Cmp)
	return ok
}

// Union returns a new set with the members of s and t.
func (s *Set) Union(t *Set) *Set { return Union(s, t) }

// Union returns a new set with the members of every set, merged by
// MergeKeys in linear passes, without a sort.
func Union(sets ...*Set) *Set {
	runs := make([][]U128, len(sets))
	for i, s := range sets {
		runs[i] = s.keys
	}
	return &Set{keys: MergeKeys(runs...)}
}

// Intersect returns the members present in both s and t.
func (s *Set) Intersect(t *Set) *Set {
	a, b := s.keys, t.keys
	if len(a) > len(b) {
		a, b = b, a
	}
	var out []U128
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch c := a[i].Cmp(b[j]); {
		case c == 0:
			out = append(out, a[i])
			i++
			j++
		case c < 0:
			i++
		default:
			j++
		}
	}
	return &Set{keys: out}
}

// Diff returns the members of s not present in t.
func (s *Set) Diff(t *Set) *Set {
	a, b := s.keys, t.keys
	var out []U128
	i, j := 0, 0
	for i < len(a) {
		switch {
		case j >= len(b) || a[i].Cmp(b[j]) < 0:
			out = append(out, a[i])
			i++
		case a[i] == b[j]:
			i++
			j++
		default:
			j++
		}
	}
	return &Set{keys: out}
}

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set { return &Set{keys: slices.Clone(s.keys)} }

// Exclusive computes, for each named set, the members appearing in that set
// and no other. This implements the paper's "exclusive" feature columns
// (Tables 5 and 7): contributions masked by combined/derived sets are the
// caller's responsibility to exclude from the input map.
func Exclusive(sets map[string]*Set) map[string]*Set {
	// Count occurrences across sets; an address is exclusive to a set when
	// its total multiplicity is one.
	mult := make(map[U128]int)
	for _, s := range sets {
		for _, k := range s.keys {
			mult[k]++
		}
	}
	out := make(map[string]*Set, len(sets))
	for name, s := range sets {
		var excl []U128
		for _, k := range s.keys {
			if mult[k] == 1 {
				excl = append(excl, k)
			}
		}
		out[name] = &Set{keys: excl}
	}
	return out
}

// PrefixSet is the analogue of Set for prefixes, keyed by canonical
// (masked) prefix value.
type PrefixSet struct {
	prefixes []netip.Prefix // sorted, unique, canonical
}

// NewPrefixSet builds a prefix set, canonicalizing, sorting, and
// deduplicating the input.
func NewPrefixSet(ps []netip.Prefix) *PrefixSet {
	set := &PrefixSet{prefixes: make([]netip.Prefix, len(ps))}
	for i, p := range ps {
		set.prefixes[i] = CanonicalPrefix(p)
	}
	slices.SortFunc(set.prefixes, comparePrefix)
	out := set.prefixes[:0]
	var prev netip.Prefix
	for i, p := range set.prefixes {
		if i == 0 || p != prev {
			out = append(out, p)
		}
		prev = p
	}
	set.prefixes = out
	return set
}

func comparePrefix(a, b netip.Prefix) int {
	if c := a.Addr().Compare(b.Addr()); c != 0 {
		return c
	}
	return a.Bits() - b.Bits()
}

// Len returns the number of prefixes.
func (s *PrefixSet) Len() int { return len(s.prefixes) }

// At returns the i'th prefix in sorted order.
func (s *PrefixSet) At(i int) netip.Prefix { return s.prefixes[i] }

// Prefixes returns the sorted canonical prefixes. Callers must not mutate.
func (s *PrefixSet) Prefixes() []netip.Prefix { return s.prefixes }

// Contains reports whether p (canonicalized) is a member.
func (s *PrefixSet) Contains(p netip.Prefix) bool {
	p = CanonicalPrefix(p)
	i := sort.Search(len(s.prefixes), func(i int) bool { return comparePrefix(s.prefixes[i], p) >= 0 })
	return i < len(s.prefixes) && s.prefixes[i] == p
}
