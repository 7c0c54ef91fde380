// Package subnet implements Section 6 of the paper: inferring IPv6 subnet
// boundaries from traced paths.
//
// Two techniques are provided. discoverByPathDiv compares paths toward
// pairs of targets: a significant common subpath (the LCS) followed by
// significant divergent suffixes (the DS) is taken as evidence the
// targets sit in different subnets, and the pair's discriminating prefix
// length (DPL) lower-bounds both subnets' prefix lengths. The "Identity
// Association hack" exploits the convention that /64 gateway routers
// source ICMPv6 from the ::1 address of the LAN: a last hop ::1 sharing
// the target's top 64 bits pins an exact /64.
//
// ASN bookkeeping follows the paper's augmentations: hop ASNs resolve
// through RIR allocations when routers are numbered from unadvertised
// space, and "equivalent ASN" groups unify organizations originating
// customer and infrastructure prefixes from distinct ASNs.
package subnet

import (
	"net/netip"
	"sort"

	"beholder/internal/bgp"
	"beholder/internal/ipv6"
	"beholder/internal/probe"
)

// discoverByPathDiv's acceptance rules, the paper's Section 6
// configuration c=2, C=1, A=1, s=1, S=1, z=0, T=1. The two flags hold
// unconditionally: A, the hop immediately before divergence is outside
// the vantage's ASN, and T, both targets share an origin ASN (modulo
// equivalent-ASN groups). z=0 (no empty divergent suffix) is implied by
// s >= 1.
const (
	// minLCS is c: the minimum length of the last common subpath, with
	// no missing hops allowed inside it.
	minLCS = 2
	// lcsTargetASNHops is C: at least this many LCS hops must resolve to
	// the target's ASN.
	lcsTargetASNHops = 1
	// minDS is s: the minimum length of each divergent suffix.
	minDS = 1
	// dsTargetASNHops is S: at least this many hops of each divergent
	// suffix must resolve to the target's ASN.
	dsTargetASNHops = 1
)

// Candidate is one inferred subnet: a lower bound on the prefix length
// of the subnet containing Target.
type Candidate struct {
	Prefix netip.Prefix // Target masked to MinLen bits
	MinLen int          // inferred minimum prefix length
	Target netip.Addr
	IAHack bool // pinned exactly by the /64 identity-association hack
}

// Result summarizes a discovery run.
type Result struct {
	// Candidates holds the deduplicated inferred subnets (one per
	// distinct Prefix), path-divergence and IA-hack combined.
	Candidates []Candidate
	// IAHackCount is the number of traces whose last hop pinned an exact
	// /64 (plotted above 64 in Figure 8b).
	IAHackCount int
	// PairsExamined and PairsAccepted count the neighbor-pair divergence
	// tests.
	PairsExamined, PairsAccepted int
}

// Discover runs both inference techniques over the traces in store.
// vantageASN is the origin ASN of the vantage's network (hops inside it
// never witness divergence). Targets are compared with their sorted
// neighbors: the nearest address pairs carry the highest DPLs and hence
// the tightest subnet bounds, and more distant pairs can only yield
// looser bounds for the same subnets.
func Discover(store *probe.Store, table *bgp.Table, vantageASN uint32) Result {
	traces := store.Traces()
	sort.Slice(traces, func(i, j int) bool { return traces[i].Target().Less(traces[j].Target()) })

	var res Result
	// bound[target] = best (highest) inferred minimum prefix length.
	bound := make(map[netip.Addr]int)

	for i := 0; i+1 < len(traces); i++ {
		a, b := traces[i], traces[i+1]
		res.PairsExamined++
		if dpl, ok := divergent(store, a, b, table, vantageASN); ok {
			res.PairsAccepted++
			if dpl > 64 {
				dpl = 64 // subnets no more specific than /64 at the edge
			}
			if dpl > bound[a.Target()] {
				bound[a.Target()] = dpl
			}
			if dpl > bound[b.Target()] {
				bound[b.Target()] = dpl
			}
		}
	}

	// IA hack: last hop is the target LAN's ::1 gateway.
	for _, t := range traces {
		if lanPinned(store, t) {
			res.IAHackCount++
			if bound[t.Target()] < 64 {
				bound[t.Target()] = 64
			}
			// Record exact /64 candidates distinctly.
		}
	}

	seen := make(map[netip.Prefix]bool)
	for target, minLen := range bound {
		pfx := ipv6.Extend(netip.PrefixFrom(target, 128), minLen)
		if seen[pfx] {
			continue
		}
		seen[pfx] = true
		res.Candidates = append(res.Candidates, Candidate{
			Prefix: pfx,
			MinLen: minLen,
			Target: target,
			IAHack: minLen == 64 && lanPinnedAddr(store, target),
		})
	}
	sort.Slice(res.Candidates, func(i, j int) bool {
		if res.Candidates[i].Prefix.Addr() != res.Candidates[j].Prefix.Addr() {
			return res.Candidates[i].Prefix.Addr().Less(res.Candidates[j].Prefix.Addr())
		}
		return res.Candidates[i].Prefix.Bits() < res.Candidates[j].Prefix.Bits()
	})
	return res
}

// lanPinned reports whether the trace's deepest hop is the ::1 gateway of
// the target's own /64.
func lanPinned(store *probe.Store, t *probe.Trace) bool {
	last, ok := uint32(0), false
	store.ForEachHop(t, func(_ uint8, id uint32) { last, ok = id, true })
	if !ok {
		return false
	}
	a := store.AddrTable().Addr(last)
	return ipv6.IID(a) == 1 && ipv6.SubnetPrefix64(a) == ipv6.SubnetPrefix64(t.Target())
}

func lanPinnedAddr(store *probe.Store, target netip.Addr) bool {
	t := store.Trace(target)
	return t != nil && lanPinned(store, t)
}

// divergent tests one target pair per discoverByPathDiv's rules,
// returning the pair's DPL when accepted.
func divergent(store *probe.Store, a, b *probe.Trace, table *bgp.Table, vantageASN uint32) (int, bool) {
	targetASNA := table.Origin(a.Target())
	targetASNB := table.Origin(b.Target())
	if targetASNA == 0 || targetASNB == 0 {
		return 0, false
	}
	if !table.SameOrg(targetASNA, targetASNB) { // T
		return 0, false
	}

	// Locate the divergence TTL: the first TTL where both paths answered
	// with different addresses.
	hopsA := hopMap(store, a)
	hopsB := hopMap(store, b)
	maxTTL := maxKey(hopsA)
	if m := maxKey(hopsB); m > maxTTL {
		maxTTL = m
	}
	div := -1
	for ttl := 1; ttl <= maxTTL; ttl++ {
		ha, okA := hopsA[ttl]
		hb, okB := hopsB[ttl]
		if okA && okB && ha != hb {
			div = ttl
			break
		}
	}
	if div < 0 {
		return 0, false
	}

	// LCS: contiguous identical responsive hops immediately before the
	// divergence; missing hops break it.
	lcs := 0
	var lcsHops []netip.Addr
	for ttl := div - 1; ttl >= 1; ttl-- {
		ha, okA := hopsA[ttl]
		hb, okB := hopsB[ttl]
		if !okA || !okB || ha != hb {
			break
		}
		lcs++
		lcsHops = append(lcsHops, ha)
	}
	if lcs < minLCS {
		return 0, false
	}
	if table.SameOrg(table.OriginAny(lcsHops[0]), vantageASN) { // A: the hop at div-1
		return 0, false
	}
	if countASNHops(lcsHops, table, targetASNA) < lcsTargetASNHops {
		return 0, false
	}

	// Divergent suffixes: responsive hops from the divergence onward.
	dsA := suffixHops(hopsA, div, maxTTL)
	dsB := suffixHops(hopsB, div, maxTTL)
	if len(dsA) < minDS || len(dsB) < minDS {
		return 0, false
	}
	if countASNHops(dsA, table, targetASNA) < dsTargetASNHops {
		return 0, false
	}
	if countASNHops(dsB, table, targetASNB) < dsTargetASNHops {
		return 0, false
	}

	return ipv6.PairDPL(a.Target(), b.Target()), true
}

func hopMap(store *probe.Store, t *probe.Trace) map[int]netip.Addr {
	m := make(map[int]netip.Addr, t.PathLength())
	tab := store.AddrTable()
	store.ForEachHop(t, func(ttl uint8, id uint32) { m[int(ttl)] = tab.Addr(id) })
	return m
}

func maxKey(m map[int]netip.Addr) int {
	max := 0
	for k := range m {
		if k > max {
			max = k
		}
	}
	return max
}

func suffixHops(m map[int]netip.Addr, from, to int) []netip.Addr {
	var out []netip.Addr
	for ttl := from; ttl <= to; ttl++ {
		if a, ok := m[ttl]; ok {
			out = append(out, a)
		}
	}
	return out
}

func countASNHops(hops []netip.Addr, table *bgp.Table, asn uint32) int {
	n := 0
	for _, h := range hops {
		if hopASN := table.OriginAny(h); hopASN != 0 && table.SameOrg(hopASN, asn) {
			n++
		}
	}
	return n
}
