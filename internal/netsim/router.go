package netsim

import (
	"net/netip"
	"sync"
	"time"

	"beholder/internal/ipv6"
)

// Router identity. Routers are materialized lazily: a probe's path is
// planned as a sequence of RouterKeys (pure hashing, no allocation), and
// only the single router that must generate a response is born, as a
// row, so its token bucket persists across probes while untouched hops
// cost nothing. Born routers are owned by the vantage that touched
// them (see Vantage.router) and found by the ordinal the identity's
// registry gave their key: every router property except the live
// bucket level is a pure function of (seed, key), so concurrent vantages
// derive identical routers without sharing mutable state.

// Router classes.
const (
	classAccess   = 1 // vantage-side access chain
	classBackbone = 2 // intra-AS transit hops
	classLevel    = 3 // subnet-hierarchy routers in the destination AS
)

// RouterKey identifies a router deterministically.
type RouterKey struct {
	ASN   uint32
	Class uint8
	K1    uint64 // access: vantage id; backbone: ingress/LB selector; level: subnet hi bits
	K2    uint64 // access/backbone: hop index; level: subnet prefix length
}

// routerRegistry numbers the routers one vantage identity's plans name:
// ordinal i is the router hops[i] names, with its hosting AS — key and
// AS side by side, so a birth's read is one cache miss. Plan steps hold
// ordinals and vantages keep their routers in a slice indexed by them,
// so the packet path resolves a hop with a load instead of a hash. The
// registry is shared, like the plan table, by every vantage of the
// identity and outlives SuspendPlanCache (scratch plans need ordinals
// too). It only grows: a plan computation interns its keys under mu
// once, a router birth reads its entry under mu once, and nothing else
// touches it.
//
// Ordinals are assigned in interning order, which depends on how
// concurrent shards interleave, so they are host-side names only: no
// reply, sim-state byte, store byte or counter may depend on one.
type routerRegistry struct {
	mu   sync.Mutex
	ords map[RouterKey]uint32
	hops []planHop
}

func newRouterRegistry() *routerRegistry {
	return &routerRegistry{ords: make(map[RouterKey]uint32)}
}

// intern writes the ordinal of hops[i]'s router into steps[i].ord,
// numbering routers seen for the first time.
func (g *routerRegistry) intern(hops []planHop, steps []coreStep) {
	g.mu.Lock()
	for i := range hops {
		o, ok := g.ords[hops[i].key]
		if !ok {
			o = uint32(len(g.hops))
			g.ords[hops[i].key] = o
			g.hops = append(g.hops, hops[i])
		}
		steps[i].ord = o
	}
	g.mu.Unlock()
}

// entry returns router ord's key and hosting AS index, and how many
// routers the registry numbers.
func (g *routerRegistry) entry(ord uint32) (hop planHop, n int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.hops[ord], len(g.hops)
}

// size returns how many routers the registry numbers.
func (g *routerRegistry) size() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.hops)
}

// routerRow is a born router: its key, its ICMPv6 source address and its
// RFC 4443 origination state, 72 pointer-free bytes. The key is spelled
// out field by field so the two flags fill its padding. A vantage keeps
// its routers as rows in chunks the garbage collector never scans (see
// Vantage.rows).
type routerRow struct {
	asn           uint32
	class         uint8
	unresponsive  bool // never originates ICMPv6
	truncateQuote bool // quotes only IPv4-style 28+40 bytes, losing Yarrp6 state
	k1, k2        uint64
	addr          ipv6.U128 // ICMPv6 source address

	// Token bucket for ICMPv6 origination (RFC 4443 §2.4(f)).
	rate   float64 // tokens per second
	burst  float64 // bucket capacity
	tokens float64
	last   time.Duration
}

// key returns the row's router key.
func (r *routerRow) key() RouterKey {
	return RouterKey{ASN: r.asn, Class: r.class, K1: r.k1, K2: r.k2}
}

// initRouter fills r with the router for key, its bucket full as of now.
// Everything but the bucket level is a pure function of (seed, key), so
// any vantage materializing the same key derives an identical router. as
// carries the /64 gateway context for level routers, whose address
// depends on the CPE plan; it is ignored otherwise.
func (u *Universe) initRouter(r *routerRow, key RouterKey, as *AS, now time.Duration) {
	*r = routerRow{asn: key.ASN, class: key.Class, k1: key.K1, k2: key.K2, addr: ipv6.FromAddr(u.routerAddr(key, as))}
	pk := h(u.seed, 21, uint64(key.ASN), uint64(key.Class), key.K1, key.K2)
	cfg := u.cfg
	span := cfg.RateLimitTokensMax - cfg.RateLimitTokensMin
	r.rate = cfg.RateLimitTokensMin + float64(h(pk, 1)%1000)/1000*span
	bspan := cfg.RateLimitBurstMax - cfg.RateLimitBurstMin
	r.burst = cfg.RateLimitBurstMin + float64(h(pk, 2)%1000)/1000*bspan
	// Campus access gear and carrier backbones run materially more
	// generous ICMPv6 origination budgets than edge distribution and CPE
	// equipment. The access band sits between randomized probing's
	// per-TTL demand (rate/16) and sequential probing's synchronized
	// per-TTL bursts (the full rate) at the paper's campaign speeds —
	// the separation Figure 5 measures.
	switch key.Class {
	case classAccess:
		r.rate = r.rate*0.6 + 150 // ~190..390 tokens/s
		r.burst *= 1.2
	case classBackbone:
		r.rate *= 4
		r.burst *= 2
	}
	if chance(h(pk, 3), uint64(cfg.AggressivePercent), 100) {
		r.rate /= 10
		r.burst /= 4
		if r.burst < 2 {
			r.burst = 2
		}
	}
	r.unresponsive = chance(h(pk, 4), uint64(cfg.UnresponsivePercent), 100)
	r.truncateQuote = chance(h(pk, 5), uint64(cfg.QuoteTruncPercent), 100)
	if key.Class == classLevel && key.K2 == 64 {
		lan := netip.PrefixFrom(ipv6.U128{Hi: key.K1, Lo: 0}.Addr(), 64)
		if u.LANAliased(lan, as) {
			// Anycast front ends are engineered to answer: generous
			// ICMPv6 origination budgets, never silent.
			r.rate *= 8
			r.burst *= 4
			r.unresponsive = false
		}
	}
	r.tokens = r.burst
	r.last = now
}

// routerAddr derives the ICMPv6 source address a router uses.
func (u *Universe) routerAddr(key RouterKey, as *AS) netip.Addr {
	switch key.Class {
	case classAccess, classBackbone:
		// Numbered from the AS's infrastructure block: a point-to-point
		// /64 per router with a lowbyte or small-integer IID.
		sub := h(u.seed, 22, uint64(key.ASN), uint64(key.Class), key.K1, key.K2)
		base := ipv6.FromAddr(as.InfraPrefix.Addr())
		base.Hi |= sub & ^ipv6.Mask(as.InfraPrefix.Bits()).Hi
		iid := uint64(1)
		if chance(h(sub, 9), 30, 100) { // some interfaces use ::2 or small ints
			iid = between(h(sub, 10), 2, 9)
		}
		base.Lo = iid
		return base.Addr()
	case classLevel:
		subnet := netip.PrefixFrom(ipv6.U128{Hi: key.K1, Lo: 0}.Addr(), int(key.K2))
		if key.K2 == 64 {
			return u.GatewayAddr(subnet, as)
		}
		if as.InfraRIR && key.K2 < 56 {
			// Distribution routers numbered from unadvertised RIR space.
			sub := hPrefix(u.seed, subnet, 23)
			base := ipv6.FromAddr(as.InfraPrefix.Addr())
			base.Hi |= sub & ^ipv6.Mask(as.InfraPrefix.Bits()).Hi
			base.Lo = 1
			return base.Addr()
		}
		return ipv6.WithIID(subnet.Addr(), 1)
	}
	panic("netsim: unknown router class")
}

// allowICMP consumes a token if available, refilling for elapsed virtual
// time; a false result models RFC 4443 rate limiting suppressing the
// ICMPv6 error.
func (r *routerRow) allowICMP(now time.Duration) bool {
	if now > r.last {
		r.tokens += r.rate * (now - r.last).Seconds()
		if r.tokens > r.burst {
			r.tokens = r.burst
		}
		r.last = now
	}
	if r.tokens >= 1 {
		r.tokens--
		return true
	}
	return false
}
