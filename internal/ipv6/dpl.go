package ipv6

import "net/netip"

// Discriminating prefix length (DPL), after Kohler et al. (IMW 2002), as
// used throughout Section 3.4.1 and Section 6 of the paper.
//
// The DPL of an address within a set is the position (1-based, counting
// from the most significant bit) of the first bit at which the address
// differs from its nearest neighbor in the sorted set. Equivalently it is
// one more than the longest common prefix the address shares with any other
// member. Two addresses known to be in different subnets must therefore sit
// in subnets whose prefix length is at least their mutual DPL.

// DPLs returns the discriminating prefix length of every address in s, in
// the same (sorted) order as s.Addrs(). Sets with fewer than two members
// have no neighbors; a DPL of 0 is reported for their members.
func DPLs(s *Set) []int {
	n := s.Len()
	out := make([]int, n)
	if n < 2 {
		return out
	}
	// Longest common prefix with the sorted predecessor/successor bounds the
	// LCP with every other member, so only neighbors need inspection.
	lcpNext := make([]int, n-1)
	for i := 0; i < n-1; i++ {
		lcpNext[i] = s.keys[i].Xor(s.keys[i+1]).LeadingZeros()
	}
	for i := 0; i < n; i++ {
		lcp := 0
		if i > 0 && lcpNext[i-1] > lcp {
			lcp = lcpNext[i-1]
		}
		if i < n-1 && lcpNext[i] > lcp {
			lcp = lcpNext[i]
		}
		out[i] = lcp + 1
	}
	return out
}

// DPLHistogram counts addresses by DPL value: index d of the returned
// array holds the number of addresses with DPL == d. Index 0 collects the
// degenerate single-member case.
func DPLHistogram(s *Set) [129]int {
	var h [129]int
	for _, d := range DPLs(s) {
		h[d]++
	}
	return h
}

// DPLCDF returns the cumulative fraction of addresses with DPL <= d for
// d in [0,128]. An empty set yields all zeros.
func DPLCDF(s *Set) [129]float64 {
	var cdf [129]float64
	n := s.Len()
	if n == 0 {
		return cdf
	}
	h := DPLHistogram(s)
	cum := 0
	for d := 0; d <= 128; d++ {
		cum += h[d]
		cdf[d] = float64(cum) / float64(n)
	}
	return cdf
}

// PairDPL returns the discriminating prefix length between two specific
// addresses: the 1-based position of their first differing bit. Identical
// addresses return 129 (no bit within 128 discriminates them).
func PairDPL(a, b netip.Addr) int {
	lcp := CommonPrefixLen(a, b)
	return lcp + 1
}
