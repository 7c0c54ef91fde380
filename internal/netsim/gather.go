package netsim

import (
	"encoding/binary"

	"beholder/internal/ipv6"
	"beholder/internal/wire"
)

// Gather, then act. Yarrp6's permutation gives the per-probe path no
// locality on purpose, so every probe's flow state — plan-table slot,
// plan core, step list, router index, router row — is a cache miss, and
// on the in-order path each of those loads waits on the one before it.
// SendBatch and PrimeRun therefore load a batch's flow state first, in
// passes: each pass issues one link of that chain for every probe of the
// batch, loads independent of one another, so their misses overlap; the
// in-order pass that routes or replays then finds its data in cache.
//
// The gather is read-only: it computes no plan, publishes nothing,
// births no router and counts no stat. What it hands the routing pass —
// a core and the slot it was found in — is a hint the routing pass
// re-checks (gatheredPlan), so no result and no counter depends on it.

// gatherSlot is one probe's gather result: the core the plan table held
// for the probe's flow, and its slot in the table generation gtab; c is
// nil when the gather found none. aux carries the passes' intermediate
// link — the step index, then the router ordinal, then the row ref, each
// plus one, zero for none.
type gatherSlot struct {
	c    *planCore
	slot int32
	aux  uint32
}

// gatherBatch gathers pkts and returns their gather slots, aligned with
// pkts; nil when nothing was gathered. A call that continues where the
// previous SendBatch stopped — pkts starting at the element it stopped
// before, and ending within what that call gathered — reuses its
// gather; any other call gathers afresh. A lone packet that continues
// nothing is not gathered, and neither is anything without a table.
func (v *Vantage) gatherBatch(pkts [][]byte) []gatherSlot {
	pt := v.plans
	if pt == nil || len(pkts) == 0 {
		return nil
	}
	t := pt.tab.Load()
	if v.gnext == &pkts[0] && v.gtab == t && v.gpos+len(pkts) <= v.gn {
		return v.gather[v.gpos : v.gpos+len(pkts)]
	}
	if len(pkts) == 1 {
		return nil
	}
	if len(v.gather) < len(pkts) {
		v.gather = make([]gatherSlot, len(pkts))
	}
	g := v.gather[:len(pkts)]
	v.gtab, v.gpos, v.gn = t, 0, len(pkts)
	v.gsink += gatherCores(pkts, t, g) + v.gatherRouters(g)
	return g
}

// gatherStop records where a SendBatch call over pkts, whose gather
// slots are g, stopped: before pkts[m]. The next call may continue from
// there.
func (v *Vantage) gatherStop(pkts [][]byte, g []gatherSlot, m int) {
	if g == nil || m == len(pkts) {
		v.gnext = nil
		return
	}
	v.gnext = &pkts[m]
	v.gpos += m
}

// gatherCores finds the packets' cores in table generation t. Its
// passes keep every load loop tight, so many loads are in flight at
// once: the first computes each packet's home slot from its header
// bytes, the second loads the slots, the third touches the cores found
// there (both cache lines a core may straddle), and the fourth — on
// cached data — checks their keys, probing on through the window as
// lookupPlan would where the home slot holds another flow, and notes
// the step the packet's hop limit reaches.
func gatherCores(pkts [][]byte, t *planSlots, g []gatherSlot) uint64 {
	n := len(t.slots)
	for i, pkt := range pkts {
		g[i] = gatherSlot{slot: -1}
		if len(pkt) >= wire.IPv6HeaderLen+8 {
			dst, fk := headerKey(pkt)
			g[i].slot = int32(home(dst, fk, n))
		}
	}
	for i := range g {
		if s := g[i].slot; s >= 0 {
			g[i].c = t.slots[s].Load()
		}
	}
	var acc uint64
	for i := range g {
		if c := g[i].c; c != nil {
			acc += c.dst.Hi + uint64(cap(c.steps))
		}
	}
	for i, pkt := range pkts {
		c, slot := g[i].c, int(g[i].slot)
		if c == nil {
			continue
		}
		dst, fk := headerKey(pkt)
		for w := 1; c != nil && (c.dst != dst || c.flowKey != fk); w++ {
			if w == planWindow || w == n {
				c = nil
				break
			}
			if slot++; slot == n {
				slot = 0
			}
			c = t.slots[slot].Load()
		}
		if c == nil {
			g[i] = gatherSlot{}
			continue
		}
		g[i] = gatherSlot{c: c, slot: int32(slot), aux: stepOf(c, pkt[7])}
	}
	return acc
}

// gatherRouters follows each slot's step (aux, from gatherCores or
// PrimeRun) to its router row, one pass per link — the step's router
// ordinal, the ordinal's row ref, the row — and returns a word folded
// from the rows so their loads are kept. A router not born here is not
// followed.
func (v *Vantage) gatherRouters(g []gatherSlot) uint64 {
	for i := range g {
		if s := g[i].aux; s != 0 {
			g[i].aux = g[i].c.steps[s-1].ord + 1
		}
	}
	for i := range g {
		if o := g[i].aux; o != 0 {
			g[i].aux = 0
			if int(o-1) < len(v.rowOf) {
				g[i].aux = v.rowOf[o-1]
			}
		}
	}
	var acc uint64
	for i := range g {
		if ref := g[i].aux; ref != 0 {
			r := v.row(ref - 1)
			acc += uint64(r.asn) + uint64(r.last)
		}
	}
	return acc
}

// headerKey reads the destination and flowKeyOf from a packet's raw
// header bytes; the packet must hold at least the fixed header and eight
// transport bytes. A packet Decode refuses never reaches a plan lookup,
// so what its bytes read as does not matter.
func headerKey(pkt []byte) (ipv6.U128, uint64) {
	dst := ipv6.U128{Hi: binary.BigEndian.Uint64(pkt[24:]), Lo: binary.BigEndian.Uint64(pkt[32:])}
	var extra uint64
	proto := pkt[6]
	tr := pkt[wire.IPv6HeaderLen:]
	switch proto {
	case wire.ProtoTCP, wire.ProtoUDP:
		extra = uint64(binary.BigEndian.Uint32(tr))
	case wire.ProtoICMPv6:
		extra = uint64(binary.BigEndian.Uint32(tr[2:]))
	default:
		proto = 0
	}
	label := uint64(pkt[1]&0x0f)<<16 | uint64(binary.BigEndian.Uint16(pkt[2:]))
	return dst, extra<<28 | label<<8 | uint64(proto)
}

// stepOf returns, plus one, the index of the step a probe at hop limit
// ttl reaches on plan c — its Time Exceeded step, or past the path's end
// the step an error may come from — and zero when no router answers.
func stepOf(c *planCore, ttl uint8) uint32 {
	idx := int(ttl) - 1
	if idx >= len(c.steps) {
		if c.outcome == outFilteredSilent || c.exists {
			return 0
		}
		idx = int(c.errorIdx)
	}
	if idx < 0 || idx >= len(c.steps) {
		return 0
	}
	return uint32(idx) + 1
}
