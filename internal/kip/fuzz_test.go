package kip

import (
	"cmp"
	"net/netip"
	"slices"
	"sort"
	"testing"

	"beholder/internal/ipv6"
)

// fuzzBases are the /48s fuzzed observations fall under: two siblings
// sharing 47 bits and one far away.
var fuzzBases = []netip.Prefix{
	ipv6.MustPrefix("2001:db8::/48"),
	ipv6.MustPrefix("2001:db8:1::/48"),
	ipv6.MustPrefix("2400:cb00:2048::/48"),
}

// fuzzObs is one encoded observation: the /64 with subnet id sub under
// fuzzBases[base], active in interval.
type fuzzObs struct{ base, sub, interval int }

// encodeFuzz is decodeFuzz's inverse for in-range inputs.
func encodeFuzz(k, percentile, numIntervals, numBases int, obs ...fuzzObs) []byte {
	b := []byte{byte(k - 1), byte(percentile - 1), byte(numIntervals - 1), byte(numBases - 2)}
	for _, o := range obs {
		b = append(b, byte(o.base|o.interval<<2), byte(o.sub>>8), byte(o.sub))
	}
	return b
}

// decodeFuzz reads K in [1, 8], a percentile in [1, 100], 1 to 8
// intervals, two or three /48s, then up to 300 three-byte observations.
// An observation's interval may be one past the window, which Aggregate
// must ignore.
func decodeFuzz(data []byte) (obs []Observation, numIntervals int, p Params, ok bool) {
	if len(data) < 4 {
		return nil, 0, Params{}, false
	}
	p = Params{K: 1 + int(data[0])%8, Percentile: 1 + int(data[1])%100}
	numIntervals = 1 + int(data[2])%8
	numBases := 2 + int(data[3])%2
	for rest := data[4:]; len(rest) >= 3 && len(obs) < 300; rest = rest[3:] {
		sub := uint64(rest[1])<<8 | uint64(rest[2])
		obs = append(obs, Observation{
			LAN:      ipv6.NthSubprefix(fuzzBases[int(rest[0]&3)%numBases], 64, sub),
			Interval: int(rest[0]>>2) % (numIntervals + 1),
		})
	}
	return obs, numIntervals, p, true
}

// aggregateOracle is kIP from its definition: every qualifying prefix of
// an observed /64 whose two children both fail to qualify, in address
// order. A prefix qualifies when at least p percent of the intervals
// (rounded up) each saw K or more distinct active /64s beneath it.
func aggregateOracle(obs []Observation, numIntervals int, p Params) []netip.Prefix {
	type pair struct {
		hi       uint64 // the /64
		interval int
	}
	seen := map[pair]bool{}
	var active []pair
	for _, o := range obs {
		a := pair{ipv6.FromAddr(o.LAN.Addr()).Hi, o.Interval}
		if a.interval >= 0 && a.interval < numIntervals && !seen[a] {
			seen[a] = true
			active = append(active, a)
		}
	}
	// Sorted by /64, the /64s beneath a prefix are one contiguous run.
	slices.SortFunc(active, func(a, b pair) int { return cmp.Compare(a.hi, b.hi) })
	need := max((p.Percentile*numIntervals+99)/100, 1)
	memo := map[netip.Prefix]bool{}
	qualifies := func(pfx netip.Prefix) bool {
		q, done := memo[pfx]
		if done {
			return q
		}
		first := ipv6.FromAddr(pfx.Addr()).Hi
		last := first | ^uint64(0)>>pfx.Bits()
		from := sort.Search(len(active), func(i int) bool { return active[i].hi >= first })
		perInterval := make([]int, numIntervals)
		for _, a := range active[from:] {
			if a.hi > last {
				break
			}
			perInterval[a.interval]++
		}
		meeting := 0
		for _, n := range perInterval {
			if n >= p.K {
				meeting++
			}
		}
		memo[pfx] = meeting >= need
		return memo[pfx]
	}
	var out []netip.Prefix
	emitted := map[netip.Prefix]bool{}
	for _, a := range active {
		for bits := 0; bits <= 64; bits++ {
			pfx := netip.PrefixFrom(ipv6.U128{Hi: a.hi}.Addr(), bits).Masked()
			if emitted[pfx] || !qualifies(pfx) {
				continue
			}
			if bits < 64 {
				zero := netip.PrefixFrom(pfx.Addr(), bits+1)
				one := netip.PrefixFrom(ipv6.FromAddr(pfx.Addr()).SetBit(bits, 1).Addr(), bits+1)
				if qualifies(zero) || qualifies(one) {
					continue
				}
			}
			emitted[pfx] = true
			out = append(out, pfx)
		}
	}
	slices.SortFunc(out, func(a, b netip.Prefix) int { return a.Addr().Compare(b.Addr()) })
	return out
}

// FuzzAggregate holds Aggregate to aggregateOracle on observations under
// two or three /48s. The seeds mirror kip_test.go's cases.
func FuzzAggregate(f *testing.F) {
	var crowd, spread []fuzzObs
	for i := 0; i < 4; i++ {
		for it := 0; it < 4; it++ {
			crowd = append(crowd, fuzzObs{0, i, it})
		}
	}
	for i := 0; i < 64; i++ {
		for it := 0; it < 3; it++ {
			spread = append(spread, fuzzObs{0, i * 3, it})
		}
	}
	var sparse []fuzzObs
	for i := 0; i < 8; i++ {
		sparse = append(sparse, fuzzObs{1, 0xaaa8 + i, 0})
	}
	sparse = append(sparse, fuzzObs{2, 0x101, 0})
	pair := []fuzzObs{{0, 0, 0}, {0, 1, 0}, {0, 0, 1}, {0, 0, 2}, {0, 0, 3}}

	f.Add(encodeFuzz(4, 50, 4, 2, crowd...))                           // BasicCrowd
	f.Add(encodeFuzz(1, 50, 1, 2, fuzzObs{0, 1, 0}, fuzzObs{0, 2, 0})) // K1YieldsLeaves
	f.Add(encodeFuzz(8, 50, 1, 3, sparse...))                          // SuppressesSparseRegions
	f.Add(encodeFuzz(2, 50, 4, 2, pair...))                            // Percentile, p50
	f.Add(encodeFuzz(2, 25, 4, 2, pair...))                            // Percentile, p25
	f.Add(encodeFuzz(8, 50, 3, 2, spread...))                          // KAnonymityInvariant (K 16 is past the fuzzed range)
	f.Add(encodeFuzz(1, 50, 2, 2, fuzzObs{0, 0, 2}, fuzzObs{0, 0, 0})) // EmptyAndDegenerate: interval past the window
	f.Add(encodeFuzz(2, 50, 1, 2, fuzzObs{0, 0, 0}, fuzzObs{0, 0, 0})) // DeduplicatesObservations
	f.Add(encodeFuzz(4, 50, 4, 2))                                     // no observations
	f.Fuzz(func(t *testing.T, data []byte) {
		obs, numIntervals, p, ok := decodeFuzz(data)
		if !ok {
			return
		}
		got := Aggregate(obs, numIntervals, p)
		if want := aggregateOracle(obs, numIntervals, p); !slices.Equal(got, want) {
			t.Fatalf("K %d p%d over %d intervals, %d observations:\n got %v\nwant %v",
				p.K, p.Percentile, numIntervals, len(obs), got, want)
		}
	})
}
