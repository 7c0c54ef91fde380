package seeds

import (
	"math/rand"

	"beholder/internal/ipv6"
	"beholder/internal/netsim"
)

// Subset records one packaged component of the TUM collection, as Table 2
// itemizes them (filename-style name plus address count before dedup).
type Subset struct {
	Name  string
	Count int
}

// TUM builds the collection-of-collections list: overlapping subsets
// assembled from other sources (rapid7 forward DNS, CAIDA DNS names,
// certificate-transparency hosts, traceroute-observed routers, zone
// files), deduplicated into one list. It returns both the union and the
// per-subset inventory for Table 2. The overlap with the fdns and caida
// lists is intentional: the paper treats TUM as non-independent.
//
// Subsets are collected as address keys. Four of them (the fdns and
// caida resamples, ct and zonefiles) are sorted already, so each becomes
// a set in one linear pass and the union is a merge of sorted sets, not
// a sort of their concatenation.
func TUM(u *netsim.Universe, rng *rand.Rand, scale Scale) (List, []Subset) {
	var subsets []Subset
	var sets []*ipv6.Set
	add := func(name string, keys []ipv6.U128) {
		subsets = append(subsets, Subset{Name: name, Count: len(keys)})
		sets = append(sets, ipv6.SetOfKeys(keys))
	}

	// rapid7-dnsany: a large subsample of the fdns list (the same scans).
	fdns := FDNS(u, rng, scale).Addrs.Keys()
	sub := make([]ipv6.U128, 0, len(fdns)*4/5)
	for _, a := range fdns {
		if rng.Intn(5) != 0 {
			sub = append(sub, a)
		}
	}
	add("rapid7-dnsany", sub)

	// caida-dnsnames: addresses CAIDA resolved names for.
	caida := CAIDA(u, rng).Addrs.Keys()
	sub = make([]ipv6.U128, 0, len(caida)*2/3)
	for _, a := range caida {
		if rng.Intn(3) != 0 {
			sub = append(sub, a)
		}
	}
	add("caida-dnsnames", sub)

	// ct: certificate transparency — named hosting servers again: largely
	// the same hosts the forward-DNS scans see, so resample the same fdns
	// data (heavy overlap is the point; TUM is not independent of fdns).
	ct := make([]ipv6.U128, 0, len(fdns)*3/5)
	for _, a := range fdns {
		if rng.Intn(5) < 3 {
			ct = append(ct, a)
		}
	}
	add("ct", ct)

	// traceroute: router interface addresses from public traceroute
	// collections — infrastructure space.
	var rtr []ipv6.U128
	for _, as := range u.ASes() {
		if as.Tier > 2 || len(as.Prefixes) == 0 {
			continue
		}
		for i := 0; i < scaled(3, scale); i++ {
			sub := ipv6.NthSubprefix(as.InfraPrefix, 64, rng.Uint64()&mask64(32))
			rtr = append(rtr, iidKey(sub.Addr(), 1))
		}
	}
	add("traceroute-v6", rtr)

	// openipmap + alexa-country: tiny curated lists.
	var curated []ipv6.U128
	for i := 0; i < scaled(6, scale); i++ {
		as := u.RandomAS(rng, netsim.KindHosting)
		if as == nil {
			break
		}
		if lan, ok := u.RandomLAN(rng, as); ok {
			curated = append(curated, iidKey(lan.Addr(), 1))
		}
	}
	add("openipmap+alexa", curated)

	// zonefiles: enterprise zones (fiebig-like but shallower).
	// The list is built for TUM alone, so its keys are given up to add.
	zones := Fiebig(u, rand.New(rand.NewSource(rng.Int63())), Scale(float64(scale)*0.3)).Addrs.Keys()
	add("zonefiles", zones)

	return List{Name: "tum", Method: "Collection", Addrs: ipv6.Union(sets...)}, subsets
}
