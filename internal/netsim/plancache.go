package netsim

import (
	"math/bits"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"beholder/internal/ipv6"
	"beholder/internal/wire"
)

// Flow-plan table. Plan computation — access chain, BFS walk over the AS
// graph, routing-table lookup, subnet descent — is a pure function of
// (universe seed, vantage identity, destination, transport, flow hash):
// the hop limit only selects where along the planned path a probe dies,
// and Yarrp6 holds the flow identity constant per target across all ~16
// TTLs precisely so that ECMP routers keep it on one path. The first
// probe toward a flow materializes the full plan (router ordinals,
// outcome, error index, a prefix-summed RTT table, and the host lookup)
// as an immutable planCore and publishes it; every later probe of the
// flow — from this vantage, a shard clone, or a later vantage with the
// same identity — reads that core in place. Nothing is copied per
// vantage: a step names its router by the ordinal the identity's router
// registry (router.go) gave its key, and each vantage resolves ordinals
// through its own dense router slice.
//
// The table is an open-addressed array of atomically published core
// pointers, probed over a short window from the flow's home slot. It
// sizes itself from the flows it observes: while fewer than a quarter of
// the slots are live a flow nearly always finds a free slot in its
// window, so nothing is evicted and the only misses are first touches;
// when the live share passes a quarter the table is rebuilt four times
// larger, up to planTableMaxBytes, beyond which a full window evicts in
// place. Every universe's tables follow this one rule; only netsim's
// own eviction tests build tables with a lower cap. No map iteration, no
// clock, no randomness is consulted, and every published value equals
// what a fresh computation would produce, so results are byte-identical
// at ANY table size — including none — and under any interleaving of the
// shards that share it.

const (
	// planTableMinSlots is a table's first size: small enough that an
	// idle vantage identity costs a few KB.
	planTableMinSlots = 1 << 10

	// planTableMaxBytes caps a table's slot array: 2 MiB is
	// 262 144 slots. It was chosen from the widest workload the
	// benchmark runs, wide-serial's 65 534 flows: the table settles at
	// this size with a quarter of its slots live — ≈ 19 MB of cores at
	// the ≈ 290 B (72 B + 13.7 steps × 16 B) a default-universe core
	// measures — and evicts about one flow in a thousand. A working set
	// up to four times that still fits, with window conflicts rising as
	// the slots fill; fully loaded the table pins ≈ 76 MB, less than the
	// ≈ 95 MB a serial vantage alone held in private slot arrays and
	// step pages before there was one table. Past that, flows evict each
	// other in place. The identity's router registry is not under this
	// cap: it holds every router the identity's plans ever named
	// (95 753 on wide-serial, ≈ 58 B each).
	planTableMaxBytes = 2 << 20
	planTableMaxSlots = planTableMaxBytes / (bits.UintSize / 8)

	// planWindow is how many consecutive slots a lookup probes from the
	// flow's home slot. A hit dereferences 1.2 cores on average below a
	// quarter load, and a window of eight is then full for about one
	// flow in a thousand (four: one in twenty — those flows evict each
	// other on every touch). The window also bounds what a miss costs
	// once a table at its cap has filled up.
	planWindow = 8
)

// planCore is one flow's plan: the immutable value every vantage of one
// identity shares. Everything in it but the router ordinals — outcome,
// prefix-summed RTTs, the ECMP flow hash — is a pure function of
// (universe seed, vantage identity, flow); the ordinals name the routers
// that function yields, in the identity's registry. Cores are never
// mutated after publication.
type planCore struct {
	// Key: destination plus the packed flow identity beyond it
	// (transport, flow label, ports/checksum/identifier — see
	// flowKeyOf). Matching on these raw fields lets the lookup index
	// with two mixes instead of deriving the full seven-mix ECMP flow
	// hash per probe; fh memoizes that hash — which the per-packet
	// draws and ECMP selection still consume.
	dst     ipv6.U128
	flowKey uint64
	fh      uint64

	pub      uint32 // serial of the publishing vantage
	destAS   int32  // index into Universe.ases; -1 when unrouted
	errorIdx uint16 // step originating a destination-unreachable
	outcome  outcomeKind
	reject   bool // reject-route rather than no-route
	exists   bool // outcome == outHost: destination is a live host
	steps    []coreStep
}

// coreStep is one hop of a plan, 16 bytes: the router's ordinal in the
// identity's registry (key and hosting AS are only needed at router
// birth, which reads them there), and the prefix-summed round trip —
// steps[i].rtt is the doubled one-way latency over steps 0..i, so a
// reply's path RTT is one field load.
type coreStep struct {
	ord uint32
	rtt time.Duration
}

// planHop is a hop as plan computation derives it, before interning:
// the router key and its hosting AS's index.
type planHop struct {
	key RouterKey
	as  int32
}

// planTable is the plan table of one vantage identity. Readers load the
// current slot array through an atomic pointer; a rebuild re-inserts the
// live pointers into a larger array under mu and swaps it in, so a
// reader on the old array still sees valid cores and an insert that
// races the swap is merely lost.
type planTable struct {
	tab      atomic.Pointer[planSlots]
	maxSlots int // no rebuild would exceed this
	mu       sync.Mutex
	growths  atomic.Int64
}

// planSlots is one generation of a table's slot array.
type planSlots struct {
	slots []atomic.Pointer[planCore]
	cores atomic.Int64 // live slots
}

// newPlanTable creates a table of n slots that grows up to maxSlots.
func newPlanTable(n, maxSlots int) *planTable {
	pt := &planTable{maxSlots: maxSlots}
	pt.tab.Store(&planSlots{slots: make([]atomic.Pointer[planCore], n)})
	return pt
}

// flowKeyOf packs the probe's flow identity beyond (src, dst) into one
// comparable word: ports / checksum+identifier (32 bits), flow label
// (20 bits), transport (8 bits). Together with the destination words
// (and the per-vantage source) it fully determines the flow — the same
// fields the ECMP flow hash folds, held raw so a table probe needs no
// hash chain.
func flowKeyOf(d *wire.Decoded) uint64 {
	var extra uint64
	switch d.Proto {
	case wire.ProtoTCP:
		extra = uint64(d.TCP.SrcPort)<<16 | uint64(d.TCP.DstPort)
	case wire.ProtoUDP:
		extra = uint64(d.UDP.SrcPort)<<16 | uint64(d.UDP.DstPort)
	case wire.ProtoICMPv6:
		extra = uint64(d.ICMPv6.Checksum)<<16 | uint64(d.ICMPv6.ID)
	}
	return extra<<28 | uint64(d.IPv6.FlowLabel)<<8 | uint64(d.Proto)
}

// home maps a flow to its home slot among n: two mixes in place of the
// seven-mix ECMP hash, range-reduced by multiplication so n need not be
// a power of two. Placement affects only which flows compete for a
// window — results are byte-identical under any placement.
func home(d ipv6.U128, flowKey uint64, n int) int {
	hi, _ := bits.Mul64(mix64(d.Hi^mix64(d.Lo^flowKey)), uint64(n))
	return int(hi)
}

// lookupPlan returns the plan for the decoded probe: the published core
// when the flow is in the table, a fresh compute — published for
// everyone after — otherwise. With no table the plan is computed into
// the vantage's scratch core, valid until the next lookupPlan call.
func (v *Vantage) lookupPlan(d *wire.Decoded) *planCore {
	dstU := ipv6.FromAddr(d.IPv6.Dst)
	fk := flowKeyOf(d)
	pt := v.plans
	if pt == nil {
		v.Stats.PlanMisses++
		return v.computePlan(d, dstU, fk)
	}
	t := pt.tab.Load()
	n := len(t.slots)
	h0 := home(dstU, fk, n)
	var free *atomic.Pointer[planCore]
	for i, w := h0, 0; w < planWindow && w < n; w++ {
		sp := &t.slots[i]
		c := sp.Load()
		if c == nil {
			free = sp
			break
		}
		if c.dst == dstU && c.flowKey == fk {
			return v.planHit(c)
		}
		if i++; i == n {
			i = 0
		}
	}
	v.Stats.PlanMisses++
	c := v.publish(v.computePlan(d, dstU, fk))
	if free == nil {
		// A window of other live flows: evict in place.
		v.Stats.PlanEvictions++
		t.slots[h0].Store(c)
	} else if free.CompareAndSwap(nil, c) {
		if t.cores.Add(1)*4 > int64(n) && 4*n <= pt.maxSlots {
			pt.grow(t)
		}
	}
	// A failed swap means a sibling took the slot between the probe and
	// the insert; its core (often this very flow's) stays, ours serves
	// this probe.
	return c
}

// gatheredPlan returns the core of the probe's gather slot gs
// (gather.go), counted as a hit, when that core is the decoded probe's
// flow and still sits in its slot of the current table generation; nil
// otherwise, and the caller looks the plan up. Slots never empty within
// a generation, so lookupPlan's window probe would have stopped at that
// same core: the hit is the one the lookup would have counted. A slot
// holds a core only when the calling SendBatch gathered it, which it
// does only with a table.
func (v *Vantage) gatheredPlan(d *wire.Decoded, gs gatherSlot) *planCore {
	c := gs.c
	if c == nil {
		return nil
	}
	if t := v.plans.tab.Load(); t != v.gtab || t.slots[gs.slot].Load() != c {
		return nil
	}
	if c.dst != ipv6.FromAddr(d.IPv6.Dst) || c.flowKey != flowKeyOf(d) {
		return nil
	}
	return v.planHit(c)
}

// planHit counts a table hit on core c and returns it.
func (v *Vantage) planHit(c *planCore) *planCore {
	v.Stats.PlanHits++
	if c.pub != v.serial {
		v.Stats.SharedPlanHits++
	}
	return c
}

// grow rebuilds the table four times larger by re-inserting old's live
// pointers, unless a sibling already replaced old.
func (pt *planTable) grow(old *planSlots) {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if pt.tab.Load() != old {
		return
	}
	n := 4 * len(old.slots)
	t := &planSlots{slots: make([]atomic.Pointer[planCore], n)}
	for k := range old.slots {
		c := old.slots[k].Load()
		if c == nil {
			continue
		}
		// The new array is private until the swap and at most a
		// sixteenth full; a core that still finds its window full is
		// dropped and recomputed on its next touch.
		for i, w := home(c.dst, c.flowKey, n), 0; w < planWindow; w++ {
			if t.slots[i].Load() == nil {
				t.slots[i].Store(c)
				t.cores.Add(1)
				break
			}
			if i++; i == n {
				i = 0
			}
		}
	}
	pt.tab.Store(t)
	pt.growths.Add(1)
}

// SuspendPlanCache takes the vantage's plan table away until the
// returned function is called: in between, every probe replans into the
// scratch core and nothing is published, and clones made meanwhile go
// without a table too. It is for workloads whose flows never repeat
// (aliased-prefix detection probes each random address once); results
// are byte-identical either way, since the table holds pure-function
// values.
func (v *Vantage) SuspendPlanCache() (resume func()) {
	pt := v.plans
	v.plans = nil
	return func() { v.plans = pt }
}

// PlanTableStats reports the vantage's plan table — its current slot
// count, how many hold a core, and how many times it has been rebuilt
// larger; all zero without a table — and how many routers the
// identity's registry numbers, table or not.
func (v *Vantage) PlanTableStats() (slots, cores int, growths int64, routers int) {
	routers = v.reg.size()
	if v.plans == nil {
		return 0, 0, 0, routers
	}
	t := v.plans.tab.Load()
	return len(t.slots), int(t.cores.Load()), v.plans.growths.Load(), routers
}

// publish copies the scratch core e (and its steps) into an immutable
// core. Cores and their step lists are carved from vantage-owned slabs —
// a cold campaign publishes one core per flow, and slab pieces keep that
// off the per-flow allocation ledger. Carved pieces are never reused, so
// published cores stay immutable.
func (v *Vantage) publish(e *planCore) *planCore {
	n := len(e.steps)
	if len(v.coreBlock) == 0 {
		v.coreBlock = make([]planCore, 64)
	}
	c := &v.coreBlock[0]
	v.coreBlock = v.coreBlock[1:]
	if len(v.coreSteps) < n {
		v.coreSteps = make([]coreStep, max(n, 4096))
	}
	*c = *e
	c.steps = v.coreSteps[:n:n]
	v.coreSteps = v.coreSteps[n:]
	copy(c.steps, e.steps)
	return c
}

// TruthPath returns the source addresses of the routers the probe's
// flow traverses, in path order: element t-1 is the router a Time
// Exceeded for hop limit t comes from. The path ends where the plan
// does — at the destination's /64 gateway, or at the router that drops
// or refuses the flow. It is the ground truth stored hops are checked
// against: the plan is computed afresh, and no counter, plan table or
// token bucket is touched. An undecodable probe has no path (nil).
func (v *Vantage) TruthPath(pkt []byte) []netip.Addr {
	var d wire.Decoded
	if d.Decode(pkt) != nil {
		return nil
	}
	plan := v.computePlan(&d, ipv6.FromAddr(d.IPv6.Dst), flowKeyOf(&d))
	out := make([]netip.Addr, len(plan.steps))
	for i, st := range plan.steps {
		hop, _ := v.reg.entry(st.ord)
		out[i] = v.u.routerAddr(hop.key, v.u.ases[hop.as])
	}
	return out
}

// computePlan materializes the router path for the decoded probe into
// the vantage's scratch core and returns it. It mirrors the planning the
// simulator did per probe before plans were kept; that it is a pure
// function of (seed, vantage identity, dst, flow identity) is what
// licenses keeping and sharing the result.
func (v *Vantage) computePlan(d *wire.Decoded, dstU ipv6.U128, flowKey uint64) *planCore {
	u := v.u
	fh := flowHashU(u.seed, v.srcU, dstU, d)
	hops := v.hops[:0]
	e := &v.scratch
	*e = planCore{dst: dstU, flowKey: flowKey, fh: fh, pub: v.serial, destAS: -1, steps: e.steps[:0]}

	// On-premise access chain.
	for i := 0; i < v.spec.ChainLen; i++ {
		hops = append(hops, planHop{key: RouterKey{ASN: v.as.ASN, Class: classAccess, K1: v.id, K2: uint64(i)}, as: int32(v.as.Idx)})
	}

	rt, ok := u.table.Lookup(d.IPv6.Dst)
	if !ok {
		// Unrouted destination: the border router reports no-route.
		e.outcome = outNoRoute
		return v.storePlan(hops, len(hops)-1)
	}
	destAS := u.byASN[rt.Origin]
	e.destAS = int32(destAS.Idx)

	// AS-level path from the BFS tree (vantage → ... → destination AS).
	var asPath [64]int
	pl := 0
	for cur := destAS.Idx; cur != v.as.Idx && pl < len(asPath); cur = int(v.parent[cur]) {
		if v.parent[cur] < 0 {
			break
		}
		asPath[pl] = cur
		pl++
	}
	prevASN := v.as.ASN
	filtered := false
	filterIdx := 0
	filterAdmin := false
	for i := pl - 1; i >= 0; i-- {
		as := u.ases[asPath[i]]
		span := 1
		if as.Tier <= 2 {
			span = 1 + int(h(u.seed, 33, uint64(as.ASN), uint64(prevASN))%3)
		}
		var lbSel uint64
		if as.LoadBalanced {
			lbSel = fh % uint64(as.LBWays)
		}
		ingress := h(u.seed, 34, uint64(prevASN), lbSel)
		for j := 0; j < span; j++ {
			hops = append(hops, planHop{key: RouterKey{ASN: as.ASN, Class: classBackbone, K1: ingress, K2: uint64(j)}, as: int32(as.Idx)})
		}
		// Transport filtering at the destination AS border.
		if as == destAS && !filtered {
			if (d.Proto == wire.ProtoUDP && as.BlockUDP) || (d.Proto == wire.ProtoTCP && as.BlockTCP) {
				filtered = true
				filterIdx = len(hops) - 1
				filterAdmin = h(u.seed, 35, uint64(as.ASN))%2 == 0
			}
		}
		prevASN = as.ASN
	}
	if filtered {
		e.outcome = outFilteredSilent
		if filterAdmin {
			e.outcome = outFilteredAdmin
		}
		// Steps past the filter can never be traversed; drop them so the
		// cached plan holds exactly the reachable prefix of the path.
		return v.storePlan(hops[:filterIdx+1], filterIdx)
	}

	// Intra-AS descent through the destination's subnet hierarchy.
	var buf [8]netip.Prefix
	chain, full := u.descent(destAS, rt.Prefix, d.IPv6.Dst, buf[:])
	for _, sub := range chain {
		hops = append(hops, planHop{key: RouterKey{
			ASN:   destAS.ASN,
			Class: classLevel,
			K1:    ipv6.FromAddr(sub.Addr()).Hi,
			K2:    uint64(sub.Bits()),
		}, as: int32(destAS.Idx)})
	}
	if !full {
		e.outcome = outNoRoute
		e.reject = destAS.RejectRoute
		return v.storePlan(hops, len(hops)-1)
	}
	e.outcome = outHost
	e.exists = len(chain) > 0 && u.hostOnLAN(d.IPv6.Dst, chain[len(chain)-1], destAS)
	return v.storePlan(hops, len(hops)-1)
}

// storePlan closes the scratch core over one step per hop: the hop's
// router ordinal — all of a plan's keys interned under one registry
// lock — and the prefix-summed RTT, steps[i].rtt being the doubled
// one-way latency across hops 0..i.
func (v *Vantage) storePlan(hops []planHop, errorIdx int) *planCore {
	v.hops = hops // keeps the (possibly grown) array for the next compute
	steps := slices.Grow(v.scratch.steps, len(hops))[:len(hops)]
	var oneWay time.Duration
	for i := range hops {
		oneWay += v.u.linkLatency(hops[i].key)
		steps[i].rtt = 2 * oneWay
	}
	v.reg.intern(hops, steps)
	v.scratch.steps = steps
	v.scratch.errorIdx = uint16(errorIdx)
	return &v.scratch
}
