package netsim

import (
	"math/rand"
	"net/netip"

	"beholder/internal/ipv6"
)

// Address plans. Each AS kind provisions its announced prefixes as a
// hierarchy of subnets; whether a particular subnet exists is a pure
// function of (universe seed, ASN, subnet), so the plan occupies no memory
// yet is consistent across routing, host population, seed sampling, and
// ground-truth export. The hierarchy terminates in /64 LANs, the
// ubiquitous most-specific subnet the paper's "/64 discovery" relies on.

// planLevel describes one tier of an addressing plan.
type planLevel struct {
	bits int    // prefix length at this level
	num  uint64 // provisioned fraction numerator
	den  uint64 // provisioned fraction denominator
}

// Per-kind subnet hierarchies, constructed once: planFor sits on the
// per-probe descent path, where returning a fresh slice literal per call
// used to be a measurable share of the allocation volume.
var (
	planEyeball    = []planLevel{{40, 1, 6}, {48, 1, 4}, {56, 1, 10}, {64, 1, 3}}
	planHosting    = []planLevel{{40, 1, 8}, {48, 1, 3}, {56, 1, 6}, {64, 1, 2}}
	planEnterprise = []planLevel{{56, 1, 5}, {64, 1, 3}}
	planUniversity = []planLevel{{40, 1, 12}, {48, 1, 6}, {56, 1, 8}, {64, 1, 3}}
	planTransit    = []planLevel{{48, 1, 24}, {64, 1, 16}}
)

// planFor returns the subnet hierarchy of an AS kind. Fractions shape how
// deep blind probing gets: dense plans (hosting) reward fine-grained
// probing; sparse plans make most of the space unrouted — the central
// tension of Table 3. The returned slice is shared and must not be
// mutated.
func planFor(kind ASKind) []planLevel {
	switch kind {
	case KindEyeballISP:
		return planEyeball
	case KindHosting:
		return planHosting
	case KindEnterprise:
		return planEnterprise
	case KindUniversity:
		return planUniversity
	default: // transit: sparse service LANs
		return planTransit
	}
}

// provisioned reports whether subnet exists in as's plan. The top-level
// announced prefix is always provisioned.
func (u *Universe) provisioned(as *AS, subnet netip.Prefix, num, den uint64) bool {
	return chance(hPrefix(u.seed, subnet, uint64(as.ASN), 11), num, den)
}

// descent computes the provisioned subnet chain covering addr beneath
// announced, stopping at the first unprovisioned level. ok reports whether
// the full chain down to a /64 LAN exists. The returned prefixes are the
// subnets whose routers a probe traverses inside the destination AS.
func (u *Universe) descent(as *AS, announced netip.Prefix, addr netip.Addr, buf []netip.Prefix) (chain []netip.Prefix, ok bool) {
	chain = buf[:0]
	for _, lvl := range planFor(as.Kind) {
		if lvl.bits <= announced.Bits() {
			continue
		}
		sub := ipv6.Extend(netip.PrefixFrom(addr, 128), lvl.bits)
		if !u.provisioned(as, sub, lvl.num, lvl.den) {
			return chain, false
		}
		chain = append(chain, sub)
	}
	return chain, true
}

// LANExists reports whether the /64 containing addr is fully provisioned
// in the plan of the AS announcing it.
func (u *Universe) LANExists(addr netip.Addr) bool {
	rt, ok := u.table.Lookup(addr)
	if !ok {
		return false
	}
	as := u.byASN[rt.Origin]
	var buf [8]netip.Prefix
	_, full := u.descent(as, rt.Prefix, addr, buf[:])
	return full
}

// Host population. Per /64 LAN the plan defines a deterministic set of
// stable hosts: lowbyte-numbered servers (the hosts DNS-derived hitlists
// see) and EUI-64 hosts (enterprise workstations visible to rDNS walks).
// Ephemeral SLAAC privacy clients — the CDN's WWW population — exist as
// statistics on eyeball LANs rather than as enumerable addresses.

// ServerCount returns how many lowbyte servers (IIDs ::1..::n beyond the
// gateway) live on lan given the owning AS kind.
func (u *Universe) ServerCount(lan netip.Prefix, as *AS) int {
	key := hPrefix(u.seed, lan, uint64(as.ASN), 12)
	switch as.Kind {
	case KindHosting:
		return int(between(h(key, 1), 2, 40))
	case KindEnterprise:
		return int(between(h(key, 1), 1, 6))
	case KindUniversity:
		return int(between(h(key, 1), 1, 8))
	case KindTransit:
		return int(between(h(key, 1), 0, 2))
	default: // eyeball LANs host clients, not servers
		return 0
	}
}

// EUIHostCount returns how many EUI-64-addressed stable hosts live on lan.
func (u *Universe) EUIHostCount(lan netip.Prefix, as *AS) int {
	if as.Kind != KindEnterprise && as.Kind != KindUniversity {
		return 0
	}
	return int(between(hPrefix(u.seed, lan, uint64(as.ASN), 13), 0, 6))
}

// EUIHostAddr returns the i'th EUI-64 host address on lan.
func (u *Universe) EUIHostAddr(lan netip.Prefix, as *AS, i int) netip.Addr {
	key := hPrefix(u.seed, lan, uint64(as.ASN), 14, uint64(i))
	mac := [6]byte{0x3c, 0x07, 0x54, byte(key >> 16), byte(key >> 8), byte(key)}
	return ipv6.WithIID(lan.Addr(), ipv6.EUI64IID(mac))
}

// HostExists reports whether addr is a stable host (or LAN gateway) in a
// fully provisioned /64. Privacy-addressed clients are intentionally not
// recognized: probes to a random IID in a client LAN find nothing, as on
// the real Internet.
func (u *Universe) HostExists(addr netip.Addr) bool {
	rt, ok := u.table.Lookup(addr)
	if !ok {
		return false
	}
	as := u.byASN[rt.Origin]
	var buf [8]netip.Prefix
	chain, full := u.descent(as, rt.Prefix, addr, buf[:])
	if !full || len(chain) == 0 {
		return false
	}
	return u.hostOnLAN(addr, chain[len(chain)-1], as)
}

// hostOnLAN is the host-population half of HostExists: it assumes lan is
// addr's fully provisioned /64 in as's plan. Plan computation
// calls it directly with the descent chain it already computed, so the
// per-probe host check costs no second routing lookup or plan descent.
func (u *Universe) hostOnLAN(addr netip.Addr, lan netip.Prefix, as *AS) bool {
	if u.LANAliased(lan, as) {
		// The front end terminates every address in the LAN.
		return true
	}
	if addr == u.GatewayAddr(lan, as) {
		return true
	}
	iid := ipv6.IID(addr)
	if iid >= 1 && iid <= uint64(u.ServerCount(lan, as)) {
		return true
	}
	if ipv6.IsEUI64IID(iid) {
		for i, n := 0, u.EUIHostCount(lan, as); i < n; i++ {
			if u.EUIHostAddr(lan, as, i) == addr {
				return true
			}
		}
	}
	return false
}

// GatewayAddr returns the address from which lan's gateway router sources
// ICMPv6. CPE-deploying eyeball ISPs use manufacturer EUI-64 identifiers;
// everyone else uses the conventional ::1 (the "IA hack" precondition).
func (u *Universe) GatewayAddr(lan netip.Prefix, as *AS) netip.Addr {
	if as.CPEOUIIndex > 0 {
		oui := cpeOUIs[as.CPEOUIIndex]
		key := hPrefix(u.seed, lan, uint64(as.ASN), 16)
		mac := [6]byte{oui[0], oui[1], oui[2], byte(key >> 16), byte(key >> 8), byte(key)}
		return ipv6.WithIID(lan.Addr(), ipv6.EUI64IID(mac))
	}
	return ipv6.WithIID(lan.Addr(), 1)
}

// Aliased /64s. CDN-style hosting ASes front a fraction of their LANs
// with load balancers that terminate any address — the aliased-prefix
// phenomenon that makes one /64 answer for 2^64 probes. Like the rest
// of the plan, aliasing is a pure function of (seed, ASN, lan), so the
// same LANs are aliased for routing, host responses, and the exported
// ground truth.

// LANAliased reports whether lan is an aliased /64 of as: every
// interface identifier beneath it answers probes.
func (u *Universe) LANAliased(lan netip.Prefix, as *AS) bool {
	if !as.CDN || lan.Bits() != 64 {
		return false
	}
	return chance(hPrefix(u.seed, lan, uint64(as.ASN), 17), uint64(u.cfg.AliasedLANPercent), 100)
}

// AddrAliased reports whether addr falls inside an aliased, fully
// provisioned /64.
func (u *Universe) AddrAliased(addr netip.Addr) bool {
	rt, ok := u.table.Lookup(addr)
	if !ok {
		return false
	}
	as := u.byASN[rt.Origin]
	if !as.CDN {
		return false
	}
	var buf [8]netip.Prefix
	chain, full := u.descent(as, rt.Prefix, addr, buf[:])
	if !full || len(chain) == 0 {
		return false
	}
	return u.LANAliased(chain[len(chain)-1], as)
}

// TruthAliasedLANs enumerates as's aliased /64s in address order, up to
// limit entries: the ground truth the alias detector is validated
// against — data unavailable on the real Internet.
func (u *Universe) TruthAliasedLANs(as *AS, limit int) []netip.Prefix {
	if !as.CDN || limit <= 0 {
		return nil
	}
	levels := planFor(as.Kind)
	var out []netip.Prefix
	var rec func(p netip.Prefix, lvlIdx int)
	rec = func(p netip.Prefix, lvlIdx int) {
		if len(out) >= limit {
			return
		}
		if p.Bits() == 64 {
			if u.LANAliased(p, as) {
				out = append(out, p)
			}
			return
		}
		if lvlIdx >= len(levels) {
			return
		}
		lvl := levels[lvlIdx]
		if lvl.bits <= p.Bits() {
			rec(p, lvlIdx+1)
			return
		}
		width := lvl.bits - p.Bits()
		if width > 16 {
			return // fan too wide to enumerate; procedural space only
		}
		for i := uint64(0); i < 1<<uint(width) && len(out) < limit; i++ {
			child := ipv6.NthSubprefix(p, lvl.bits, i)
			if u.provisioned(as, child, lvl.num, lvl.den) {
				rec(child, lvlIdx+1)
			}
		}
	}
	for _, p := range as.Prefixes {
		rec(p, 0)
	}
	return out
}

// RandomLAN samples a uniformly random provisioned /64 beneath one of
// as's announced prefixes by rejection-sampling each level of the plan.
// ok is false when sampling fails (pathologically sparse plans).
func (u *Universe) RandomLAN(rng *rand.Rand, as *AS) (netip.Prefix, bool) {
	p := as.Prefixes[rng.Intn(len(as.Prefixes))]
	return u.RandomSubnetUnder(rng, as, p, 64)
}

// RandomSubnetUnder samples a random provisioned subnet of prefix length
// bits beneath start, which must itself be provisioned (an announced
// prefix or the result of a previous sampling call). Seed generators use
// it to model the clustered structure of real hitlists: many /64s under
// few POP-level prefixes.
func (u *Universe) RandomSubnetUnder(rng *rand.Rand, as *AS, start netip.Prefix, bits int) (netip.Prefix, bool) {
	p := start
	for _, lvl := range planFor(as.Kind) {
		if lvl.bits <= p.Bits() {
			continue
		}
		if lvl.bits > bits {
			break
		}
		width := uint(lvl.bits - p.Bits())
		found := false
		for try := 0; try < 64; try++ {
			var idx uint64
			if width >= 63 {
				idx = rng.Uint64()
			} else {
				idx = rng.Uint64() & ((1 << width) - 1)
			}
			cand := ipv6.NthSubprefix(p, lvl.bits, idx)
			if u.provisioned(as, cand, lvl.num, lvl.den) {
				p = cand
				found = true
				break
			}
		}
		if !found {
			return netip.Prefix{}, false
		}
	}
	if p.Bits() < bits {
		// The plan has no level at exactly bits below this point; the
		// deepest provisioned ancestor is the best answer.
		return p, p.Bits() >= bits
	}
	return p, true
}

// TruthSubnets enumerates as's provisioned subnets with prefix length at
// most maxBits, up to limit entries, in address order: the simulator's
// ground-truth subnet plan used to validate Section 6's discovery. The
// announced prefixes themselves are included.
func (u *Universe) TruthSubnets(as *AS, maxBits, limit int) []netip.Prefix {
	var out []netip.Prefix
	levels := planFor(as.Kind)
	var rec func(p netip.Prefix, lvlIdx int)
	rec = func(p netip.Prefix, lvlIdx int) {
		if len(out) >= limit {
			return
		}
		out = append(out, p)
		if lvlIdx >= len(levels) || levels[lvlIdx].bits > maxBits {
			return
		}
		lvl := levels[lvlIdx]
		if lvl.bits <= p.Bits() {
			rec(p, lvlIdx+1)
			return
		}
		width := lvl.bits - p.Bits()
		if width > 16 {
			return // fan too wide to enumerate; procedural space only
		}
		for i := uint64(0); i < 1<<uint(width) && len(out) < limit; i++ {
			child := ipv6.NthSubprefix(p, lvl.bits, i)
			if u.provisioned(as, child, lvl.num, lvl.den) {
				rec(child, lvlIdx+1)
			}
		}
	}
	for _, p := range as.Prefixes {
		rec(p, 0)
	}
	return out
}
