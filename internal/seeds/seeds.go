// Package seeds synthesizes the study's seven seed lists plus the random
// control from the simulated Internet's ground truth, mimicking how each
// real source samples the address space (Section 3.2, Table 1):
//
//   - caida:    BGP-derived — ::1 plus one random address per advertised prefix
//   - fiebig:   reverse-DNS walking — exhaustive host enumeration in the
//     enterprise/university networks that maintain ip6.arpa, including
//     unadvertised infrastructure space
//   - fdns_any: forward DNS — named servers in hosting networks, heavy in
//     lowbyte and service-patterned IIDs, polluted with 6to4
//   - dnsdb:    passive DNS — a broad, shallower mix across network kinds
//   - cdn:      kIP-anonymized aggregates of WWW client /64 activity
//   - 6gen:     6Gen loose-mode generation from CAIDA-derived inputs
//   - tum:      a collection-of-collections overlapping fdns and caida
//   - random:   uniformly random addresses within BGP-routed space
//
// Every generator is deterministic given its *rand.Rand, so seed lists are
// reproducible campaign artifacts.
package seeds

import (
	"math/rand"
	"net/netip"

	"beholder/internal/ipv6"
	"beholder/internal/kip"
	"beholder/internal/netsim"
	"beholder/internal/sixgen"
)

// List is one seed source's output: addresses, prefixes, or both (the CDN
// source publishes only anonymized prefixes).
type List struct {
	Name     string
	Method   string
	Addrs    *ipv6.Set
	Prefixes *ipv6.PrefixSet
}

// Scale multiplies the default sizing of every generated list. Tests use
// fractions; campaign benchmarks use 1.0 or above.
type Scale float64

// CAIDA builds the BGP-derived list: the ::1 address plus one
// random-IID address inside every advertised prefix of length at most 48,
// matching CAIDA's probed-target construction (half lowbyte, half random
// in Table 1).
func CAIDA(u *netsim.Universe, rng *rand.Rand) List {
	routes := u.Table().Prefixes()
	keys := make([]ipv6.U128, 0, 2*len(routes))
	for _, rt := range routes {
		if rt.Prefix.Bits() > 48 {
			continue
		}
		keys = append(keys,
			iidKey(rt.Prefix.Addr(), 1),
			iidKey(ipv6.NthSubprefix(rt.Prefix, 64, rng.Uint64()&mask64(64-rt.Prefix.Bits())).Addr(), rng.Uint64()),
		)
	}
	return List{Name: "caida", Method: "BGP-derived", Addrs: ipv6.SetOfKeys(keys)}
}

// iidKey is the key of ipv6.WithIID(a, iid): a's top 64 bits under iid.
func iidKey(a netip.Addr, iid uint64) ipv6.U128 {
	return ipv6.U128{Hi: ipv6.FromAddr(a).Hi, Lo: iid}
}

func mask64(bits int) uint64 {
	if bits >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(bits)) - 1
}

// Fiebig builds the reverse-DNS list: dense per-LAN host enumerations in
// enterprise and university networks (gateways, servers, EUI-64
// workstations, dynamic privacy entries), plus PTR-visible router
// addresses in unadvertised RIR infrastructure space — the source of the
// list's large unrouted fraction (Table 5).
func Fiebig(u *netsim.Universe, rng *rand.Rand, scale Scale) List {
	var keys []ipv6.U128
	lansPerAS := scaled(30, scale)
	for _, as := range u.ASes() {
		if as.Kind != netsim.KindEnterprise && as.Kind != netsim.KindUniversity {
			continue
		}
		// rDNS walking enumerates whole zones: many /64s beneath each
		// delegated /56, densely packed (the source of fiebig's high-DPL
		// profile in Figure 3a).
		for z := 0; z < lansPerAS/6+1; z++ {
			zone, ok := u.RandomSubnetUnder(rng, as, as.Prefixes[rng.Intn(len(as.Prefixes))], 56)
			if !ok {
				continue
			}
			for i := 0; i < 8; i++ {
				lan, ok := u.RandomSubnetUnder(rng, as, zone, 64)
				if !ok {
					continue
				}
				keys = append(keys, ipv6.FromAddr(u.GatewayAddr(lan, as)))
				for s, n := 1, u.ServerCount(lan, as); s <= n; s++ {
					keys = append(keys, iidKey(lan.Addr(), uint64(s)))
				}
				for e, n := 0, u.EUIHostCount(lan, as); e < n; e++ {
					keys = append(keys, ipv6.FromAddr(u.EUIHostAddr(lan, as, e)))
				}
				// Dynamic DNS entries for privacy-addressed clients.
				for c := rng.Intn(6); c > 0; c-- {
					keys = append(keys, iidKey(lan.Addr(), rng.Uint64()))
				}
			}
		}
		// PTR records covering unadvertised router space.
		if as.InfraRIR {
			for i := 0; i < lansPerAS/2; i++ {
				sub := ipv6.NthSubprefix(as.InfraPrefix, 64, rng.Uint64()&mask64(32))
				keys = append(keys, iidKey(sub.Addr(), 1))
			}
		}
	}
	return List{Name: "fiebig", Method: "Reverse DNS", Addrs: ipv6.SetOfKeys(keys)}
}

// FDNS builds the forward-DNS (Rapid7 Sonar style) list: named hosting
// servers with lowbyte and service-port IIDs, embedded-IPv4 vanity
// addresses, a random-IID minority, and a notorious 6to4 component.
func FDNS(u *netsim.Universe, rng *rand.Rand, scale Scale) List {
	popsPerAS := scaled(3, scale)
	lansPerPop := 14
	n6to4 := scaled(2000, scale)
	hosting := 0
	for _, as := range u.ASes() {
		if as.Kind == netsim.KindHosting {
			hosting++
		}
	}
	keys := make([]ipv6.U128, 0, hosting*popsPerAS*lansPerPop*fdnsPerLAN+n6to4)
	for _, as := range u.ASes() {
		if as.Kind != netsim.KindHosting {
			continue
		}
		// Named infrastructure clusters: a few POP-level /48s hold many
		// active /64s each, the clustering that separates the zn
		// transformation levels (Table 3).
		for p := 0; p < popsPerAS; p++ {
			pop, ok := u.RandomSubnetUnder(rng, as, as.Prefixes[rng.Intn(len(as.Prefixes))], 48)
			if !ok {
				continue
			}
			for i := 0; i < lansPerPop; i++ {
				lan, ok := u.RandomSubnetUnder(rng, as, pop, 64)
				if !ok {
					continue
				}
				keys = fdnsLANKeys(u, rng, as, lan, keys)
			}
		}
	}
	// 6to4: DNS is full of 2002::/16 names that are unrouted in the
	// native BGP table.
	for i := 0; i < n6to4; i++ {
		hi := uint64(0x2002)<<48 | uint64(rng.Uint32())<<16
		keys = append(keys, ipv6.U128{Hi: hi, Lo: 1})
	}
	return List{Name: "fdns_any", Method: "Fwd. DNS", Addrs: ipv6.SetOfKeys(keys)}
}

// fdnsPerLAN sizes FDNS's list: the mean of a hosting LAN's 2-40
// servers plus its expected vanity and privacy names, rounded up.
const fdnsPerLAN = 22

// fdnsLANKeys emits the DNS-named addresses of one hosting LAN: lowbyte
// servers, service-port and embedded-IPv4 vanity names, and a privacy
// minority.
func fdnsLANKeys(u *netsim.Universe, rng *rand.Rand, as *netsim.AS, lan netip.Prefix, keys []ipv6.U128) []ipv6.U128 {
	hi := ipv6.FromAddr(lan.Addr()).Hi
	n := u.ServerCount(lan, as)
	for s := 1; s <= n; s++ {
		keys = append(keys, ipv6.U128{Hi: hi, Lo: uint64(s)})
	}
	if n > 0 {
		if rng.Intn(3) == 0 {
			keys = append(keys, ipv6.U128{Hi: hi, Lo: 0x80})
		}
		if rng.Intn(5) == 0 {
			keys = append(keys, ipv6.U128{Hi: hi, Lo: 0x443})
		}
		if rng.Intn(6) == 0 {
			v4 := uint64(0xc0a80000 | rng.Intn(1<<16)) // 192.168.x.y embedded
			keys = append(keys, ipv6.U128{Hi: hi, Lo: v4})
		}
	}
	if rng.Intn(4) == 0 {
		keys = append(keys, ipv6.U128{Hi: hi, Lo: rng.Uint64()})
	}
	return keys
}

// DNSDB builds the passive-DNS list: a broad but shallow mix over every
// edge kind, giving the widest ASN coverage per address of the DNS
// sources.
func DNSDB(u *netsim.Universe, rng *rand.Rand, scale Scale) List {
	var keys []ipv6.U128
	lansPerAS := scaled(8, scale)
	for _, as := range u.ASes() {
		if as.Tier != 3 {
			continue
		}
		for i := 0; i < lansPerAS; i++ {
			lan, ok := u.RandomLAN(rng, as)
			if !ok {
				continue
			}
			switch n := u.ServerCount(lan, as); {
			case n > 0:
				keys = append(keys, iidKey(lan.Addr(), uint64(1+rng.Intn(n))))
			default:
				// Client LANs show up in AAAA answers with privacy IIDs.
				keys = append(keys, iidKey(lan.Addr(), rng.Uint64()))
			}
			if m := u.EUIHostCount(lan, as); m > 0 && rng.Intn(8) == 0 {
				keys = append(keys, ipv6.FromAddr(u.EUIHostAddr(lan, as, rng.Intn(m))))
			}
		}
	}
	return List{Name: "dnsdb", Method: "Passive DNS", Addrs: ipv6.SetOfKeys(keys)}
}

// CDNObservations samples WWW client /64 activity the way a CDN's edge
// observes it: per eyeball LAN, activity in a random subset of the
// measurement window's intervals, weighted by the LAN's client count.
func CDNObservations(u *netsim.Universe, rng *rand.Rand, scale Scale, numIntervals int) []kip.Observation {
	var obs []kip.Observation
	observe := func(lan netip.Prefix) {
		// Home networks are mostly always-on: active in at least half
		// the window's intervals.
		activity := numIntervals/2 + rng.Intn(numIntervals/2+1)
		for j := 0; j < activity; j++ {
			obs = append(obs, kip.Observation{LAN: lan, Interval: rng.Intn(numIntervals)})
		}
	}
	lansPerAS := scaled(60, scale)
	for _, as := range u.ASes() {
		if as.Kind != netsim.KindEyeballISP {
			continue
		}
		if as.CPEOUIIndex > 0 {
			// The large broadband ISPs dominate the WWW client
			// population, and their subscribers fill whole neighborhoods:
			// dense activity within /56 aggregation zones is what lets
			// kIP publish long (near-/64) aggregates for them.
			zones := scaled(400, scale)
			for z := 0; z < zones; z++ {
				zone, ok := u.RandomSubnetUnder(rng, as, as.Prefixes[rng.Intn(len(as.Prefixes))], 56)
				if !ok {
					continue
				}
				for i := 0; i < 30; i++ {
					if lan, ok := u.RandomSubnetUnder(rng, as, zone, 64); ok {
						observe(lan)
					}
				}
			}
			continue
		}
		for i := 0; i < lansPerAS; i++ {
			if lan, ok := u.RandomLAN(rng, as); ok {
				observe(lan)
			}
		}
	}
	return obs
}

// cdn builds the kIP-anonymized client prefix list for the paper's
// anonymity parameter k (32 or 256) from the builder's CDN observation
// pass, drawing the observations from rng only if no CDN list was built
// yet. Because the simulated client population is orders of magnitude
// smaller than a production CDN's, the effective anonymity-set size is
// scaled down proportionally (preserving the 8x ratio between the two
// lists); the published lists keep the paper's names.
func (b *builder) cdn(rng *rand.Rand, k int) List {
	const intervals = 24
	if b.cdnObs == nil {
		b.cdnObs = CDNObservations(b.u, rng, b.scale, intervals)
	}
	aggs := kip.Aggregate(b.cdnObs, intervals, kip.Params{K: effectiveK(k, b.scale), Percentile: 50})
	name := "cdn-k32"
	if k >= 256 {
		name = "cdn-k256"
	}
	return List{Name: name, Method: "kIP anonymization", Prefixes: ipv6.NewPrefixSet(aggs)}
}

// effectiveK maps the paper's k to the simulation's population scale:
// k/8 at scale 1, floor 2, preserving k256/k32 = 8x.
func effectiveK(paperK int, scale Scale) int {
	return max(int(float64(paperK)*float64(scale)/16), 2)
}

// SixGen builds the generative list: 6Gen in loose clustering mode, fed
// (as the paper did) with CAIDA probe destinations plus interface
// addresses those probes would discover — approximated here by LAN
// gateways sampled across the simulated topology.
func SixGen(u *netsim.Universe, rng *rand.Rand, scale Scale) List {
	caida := CAIDA(u, rng)
	input := append([]netip.Addr{}, caida.Addrs.Addrs()...)
	for _, as := range u.ASes() {
		if as.Tier != 3 {
			continue
		}
		for i := 0; i < scaled(4, scale); i++ {
			if lan, ok := u.RandomLAN(rng, as); ok {
				input = append(input, u.GatewayAddr(lan, as))
			}
		}
	}
	budget := scaled(12, scale) * u.Table().NumPrefixes()
	got := sixgen.Generate(input, sixgen.DefaultConfig(budget))
	return List{Name: "6gen", Method: "Generative", Addrs: ipv6.NewSet(got)}
}

// Random builds the control list: n random addresses drawn uniformly from
// the advertised prefixes (random prefix, random IID).
func Random(u *netsim.Universe, rng *rand.Rand, n int) List {
	routes := u.Table().Prefixes()
	keys := make([]ipv6.U128, 0, n)
	for i := 0; i < n; i++ {
		rt := routes[rng.Intn(len(routes))]
		spare := 64 - rt.Prefix.Bits()
		sub := ipv6.NthSubprefix(rt.Prefix, 64, rng.Uint64()&mask64(spare))
		keys = append(keys, iidKey(sub.Addr(), rng.Uint64()))
	}
	return List{Name: "random", Method: "Random", Addrs: ipv6.SetOfKeys(keys)}
}

func scaled(base int, scale Scale) int {
	return max(int(float64(base)*float64(scale)), 1)
}
