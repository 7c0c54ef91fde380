package ipv6

import (
	"cmp"
	"slices"
)

// Address keys. A U128 is the pointer-free form of an address: sorting
// keys orders them exactly as netip.Addr.Less orders the 16-byte,
// zone-free addresses they stand for, without the write barrier a
// netip.Addr swap runs or the GC scan a large []netip.Addr costs.
// Builders of big address lists (seed lists, target sets) collect keys
// and turn them into a Set once, through SetOfKeys.

// SortKeys sorts keys ascending and removes duplicates. It is the one
// sort path of the package's address sets: keys that are already sorted
// cost one linear pass (the check, and a duplicate sweep in place if
// the check saw one), others are sorted into a new slice (sortKeys).
// Either way the caller gives keys up and keeps the returned slice.
func SortKeys(keys []U128) []U128 {
	unique := true
	for i := 1; i < len(keys); i++ {
		switch keys[i].Cmp(keys[i-1]) {
		case -1:
			return slices.Compact(sortKeys(keys))
		case 0:
			unique = false
		}
	}
	if !unique {
		keys = slices.Compact(keys)
	}
	return keys
}

// sortKeys sorts keys by moving runs, not keys. Address lists are built
// LAN by LAN, so keys arrive in runs that share a /64 (equal Hi); the
// runs are sorted by Hi, ties in input order, and gathered in that order
// into a new slice. The keys of one /64 are then adjacent, and a
// comparison sort orders the IIDs of each /64 whose keys are out of
// order; builders emit a LAN's IIDs mostly ascending, so that step is
// nearly a linear scan. A list of n distinct /64s costs one comparison
// sort of n runs. (In tum's build at scale 3, ≈ 1 M unsorted keys on a
// 2-vCPU x86-64 host, it took 53 ms, an LSD radix sort over Hi's bytes
// followed by the same IID step ≈ 120 ms, one over all 16 bytes ≈ 200
// ms, and slices.SortFunc over the keys ≈ 200 ms.)
func sortKeys(keys []U128) []U128 {
	type run struct {
		hi         uint64
		start, end int
	}
	var runs []run
	for i := 0; i < len(keys); {
		j := i + 1
		for j < len(keys) && keys[j].Hi == keys[i].Hi {
			j++
		}
		runs = append(runs, run{keys[i].Hi, i, j})
		i = j
	}
	slices.SortFunc(runs, func(a, b run) int {
		if c := cmp.Compare(a.hi, b.hi); c != 0 {
			return c
		}
		return a.start - b.start
	})
	out := make([]U128, 0, len(keys))
	for _, r := range runs {
		out = append(out, keys[r.start:r.end]...)
	}
	keys = out
	for i := 0; i < len(keys); {
		j, sorted := i+1, true
		for ; j < len(keys) && keys[j].Hi == keys[i].Hi; j++ {
			sorted = sorted && keys[j].Lo >= keys[j-1].Lo
		}
		if !sorted {
			slices.SortFunc(keys[i:j], func(a, b U128) int { return cmp.Compare(a.Lo, b.Lo) })
		}
		i = j
	}
	return keys
}

// MergeKeys returns the sorted, duplicate-free union of sorted runs in a
// new slice. It merges the two shortest runs until one is left, the
// order that moves the fewest keys: the tum collection's small subsets
// merge with each other before they meet the big ones. A run may hold
// duplicates of its own.
func MergeKeys(runs ...[]U128) []U128 {
	if len(runs) == 0 {
		return nil
	}
	runs = slices.Clone(runs)
	for {
		slices.SortFunc(runs, func(a, b []U128) int { return len(b) - len(a) })
		n := len(runs)
		var b []U128
		if n > 1 {
			b, runs = runs[n-1], runs[:n-1]
		}
		runs[len(runs)-1] = merge2(runs[len(runs)-1], b)
		if len(runs) == 1 {
			return runs[0]
		}
	}
}

// merge2 merges sorted a and b into a new slice, dropping duplicates.
func merge2(a, b []U128) []U128 {
	out := make([]U128, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var k U128
		if j == len(b) || i < len(a) && a[i].Cmp(b[j]) <= 0 {
			k = a[i]
			i++
		} else {
			k = b[j]
			j++
		}
		if len(out) == 0 || out[len(out)-1] != k {
			out = append(out, k)
		}
	}
	return out
}
