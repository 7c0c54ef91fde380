// Package kip implements kIP aggregation-based address anonymization after
// Plonka & Berger (arXiv:1707.03900), the mechanism behind the paper's CDN
// seed lists (cdn-k32, cdn-k256).
//
// WWW client /64 prefixes observed in a measurement window are replaced by
// covering aggregates chosen so that each published aggregate covered at
// least k simultaneously-active /64s in at least the p'th percentile of
// observation intervals. Clients therefore hide in crowds of size >= k,
// and regions with too few simultaneously-active clients are withheld
// entirely — the property that later frustrates subnet validation in
// Section 6 of the topology paper.
package kip

import (
	"cmp"
	"math/bits"
	"net/netip"
	"slices"
	"sort"

	"beholder/internal/ipv6"
)

// Params are the kIP parameters as given in the paper's Section 3.1:
// w=14 days, i=1 hour intervals, k simultaneously-assigned /64s, p=50th
// percentile. The window and interval enter through the caller's interval
// numbering of observations.
type Params struct {
	K          int // minimum simultaneously-active /64s per aggregate
	Percentile int // percentile of intervals that must meet K (0-100]
}

// Observation records that a client /64 was active during an interval.
type Observation struct {
	LAN      netip.Prefix // a /64
	Interval int          // interval index in [0, NumIntervals)
}

// activity is a /64 (its 64 high bits) active in an interval.
type activity struct {
	hi       uint64
	interval uint32
}

// Aggregate computes the anonymized aggregate set for the observations.
// numIntervals is the total number of observation intervals in the window.
// The result is the set of longest prefixes each of which satisfied the
// k-anonymity condition; observed /64s not covered by any qualifying
// aggregate are suppressed.
func Aggregate(obs []Observation, numIntervals int, p Params) []netip.Prefix {
	if len(obs) == 0 || numIntervals <= 0 {
		return nil
	}
	p.K = max(p.K, 1)
	if p.Percentile <= 0 || p.Percentile > 100 {
		p.Percentile = 50
	}

	// Sort the in-range activities by /64, then interval, and drop
	// duplicates: a /64 seen twice in one interval is one client, not a
	// crowd. Every prefix then covers one contiguous run of the slice.
	acts := make([]activity, 0, len(obs))
	for _, o := range obs {
		if o.Interval >= 0 && o.Interval < numIntervals {
			acts = append(acts, activity{ipv6.FromAddr(o.LAN.Addr()).Hi, uint32(o.Interval)})
		}
	}
	slices.SortFunc(acts, func(a, b activity) int {
		if a.hi != b.hi {
			return cmp.Compare(a.hi, b.hi)
		}
		return cmp.Compare(a.interval, b.interval)
	})
	acts = slices.Compact(acts)

	// qualifies: at least p percent of the window's intervals saw K or
	// more simultaneously-active /64s in the run (the "p'th percentile of
	// intervals" condition of kIP).
	need := max((p.Percentile*numIntervals+99)/100, 1) // ceil(p% of N), at least 1
	counts := make([]uint32, numIntervals)
	qualifies := func(run []activity) bool {
		clear(counts)
		meeting := 0
		for _, a := range run {
			counts[a.interval]++
			if counts[a.interval] == uint32(p.K) {
				meeting++
			}
		}
		return meeting >= need
	}

	// walk is handed a qualifying run. Its /64s share the high bits up to
	// the first one where its first and last /64 differ; every prefix
	// between covers the same run and qualifies too. Split the run at that
	// bit and descend into the halves that qualify; when neither does,
	// the shared prefix is the longest qualifying one.
	var out []netip.Prefix
	var walk func(run []activity)
	walk = func(run []activity) {
		hi := run[0].hi
		shared := bits.LeadingZeros64(hi ^ run[len(run)-1].hi)
		if shared < 64 {
			bit := uint64(1) << (63 - shared)
			m := sort.Search(len(run), func(i int) bool { return run[i].hi&bit != 0 })
			zero, one := run[:m], run[m:]
			qz, qo := qualifies(zero), qualifies(one)
			if qz {
				walk(zero)
			}
			if qo {
				walk(one)
			}
			if qz || qo {
				// Non-qualifying halves are suppressed: their clients
				// lack a crowd of size K at this granularity.
				return
			}
		}
		out = append(out, netip.PrefixFrom(ipv6.U128{Hi: hi &^ (^uint64(0) >> shared)}.Addr(), shared))
	}
	if len(acts) > 0 && qualifies(acts) {
		walk(acts)
	}
	return out
}
