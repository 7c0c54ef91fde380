package netsim

import (
	"fmt"
	"math"
	"net/netip"
	"slices"
	"time"

	"beholder/internal/faultsim"
	"beholder/internal/ipv6"
	"beholder/internal/wire"
)

// VantageSpec describes where a measurement vantage attaches.
type VantageSpec struct {
	Name     string
	Kind     ASKind // kind of AS hosting the vantage
	ChainLen int    // on-premise access path length (routers before the border)
}

// Vantage is a measurement host inside the simulated internetwork. It
// implements the prober-side connection contract: Send consumes a
// wire-format IPv6 packet, Recv yields wire-format replies, and
// Now/Sleep expose a virtual clock for pacing.
//
// Every response-side decision — path plan, router properties, ECMP
// selection, loss, jitter, unreachable generation — is a pure function
// of the universe seed, the probe bytes, and the probe's virtual send
// time. Combined with per-vantage ownership of all mutable state (clock,
// router token buckets, delivery queue, buffer free list), this makes concurrent vantages race-free and their results independent
// of goroutine scheduling: a sharded campaign that reproduces a single
// prober's (packet, time) schedule reproduces its replies.
//
// The packet path is allocation-free at steady state: path plans come
// from the identity's flow-plan table (see plancache.go), a router's
// birth appends a row to a chunk allocated once per 256 births, reply
// buffers cycle through a free list that Recv refills, and the delivery
// queue is an unboxed min-heap of value entries.
//
// SendBatch and PrimeRun gather, then act (gather.go): passes over the
// batch load every probe's plan-table slot, plan core, step and router
// row with loads independent of one another, and the in-order pass then
// routes or replays on data already in cache. The gather's scratch is
// allocated on first use, sized to the batch, and reused by a SendBatch
// call that continues where the previous one stopped early.
type Vantage struct {
	u    *Universe
	spec VantageSpec
	id   uint64
	as   *AS
	addr netip.Addr
	srcU ipv6.U128 // addr's raw words, pre-extracted for per-probe hashing

	// clk is the vantage's virtual clock. Vantages created with
	// NewVantage share the universe clock (the single-prober regime);
	// Clone gives each campaign shard a private clock opened at its
	// permutation window start.
	clk *Clock

	// group coordinates the clocks of shards cloned from this vantage.
	group *ClockGroup

	parent []int32 // BFS shortest-path tree over the AS graph, -1 at root

	// rows holds the routers born at this vantage — routers are born,
	// never retired — in birth order, in chunks that never move, so a row
	// pointer stays valid across later births. A row is named by its ref,
	// chunk<<rowChunkBits | offset. Router properties are pure functions
	// of (seed, key); only the live token bucket is mutable, and it is
	// owned — never shared — by the materializing vantage, so concurrent
	// vantages need no locking.
	rows [][]routerRow
	// rowOf maps a router's ordinal in reg to its row ref + 1, zero where
	// the router is not born here.
	rowOf []uint32
	// byKey lists, ascending by router key, the refs of the rows born
	// before the previous ExportSimState; the export sorts only the rows
	// born since and merges them in, instead of collecting and sorting
	// every row for every snapshot. A vantage that never exports never
	// builds it.
	byKey []uint32

	queue deliveryQueue
	dec   wire.Decoded // scratch decoder reused across Send calls

	// plans is the flow-plan table (plancache.go) this vantage reads
	// and publishes into: the universe's table for the vantage's
	// identity, shared with every clone and with later vantages of the
	// same identity. Nil (SuspendPlanCache) means no table: every probe
	// replans into scratch. reg is the identity's router registry, shared
	// the same way, table or not. serial names this vantage in the cores
	// it publishes; hops is plan computation's scratch; coreBlock and
	// coreSteps are its publication slabs: carved, never reused.
	plans     *planTable
	reg       *routerRegistry
	serial    uint32
	scratch   planCore
	hops      []planHop
	coreBlock []planCore
	coreSteps []coreStep

	// Reply-buffer pool: bufs owns every buffer ever issued at this
	// vantage; the free stacks hold the indices available for reuse, one
	// per size class. Send-side builders draw a buffer sized to the
	// reply they are about to emit, Recv returns it after copying the
	// reply out. Nearly every reply fits the small class (errors quote
	// ~128-byte probes); the full wire.MinMTU class covers maximal
	// quotations without a tenfold memory bill on the rate×RTT product
	// of in-flight replies. Deliveries reference buffers by index,
	// keeping queue entries pointer-free (heap sifts then move 16-byte
	// values with no GC write barriers).
	bufs      [][]byte
	freeSmall []int32
	freeFull  []int32

	// pend holds this vantage's universe-stat contributions between
	// flushes (see SendBatch/FlushStats): the shared SimStats atomics
	// are the only cross-shard writes on the packet path, so batched
	// sends count here and flushTo adds them every pendFlushEvery sends.
	pend SimStats

	// Fault-injection plane (internal/faultsim). faults is this clone's
	// resolved plan; hasFaults guards every packet-path fault check
	// behind one predictable branch, so a fault-free universe pays one
	// compare per send. shardOrd is the clone ordinal rules match on
	// (creation order within a shard group; the parent is 0), and
	// nextClone numbers this vantage's future clones. errTransient is
	// reused across transient failures so the fault path allocates
	// nothing per packet.
	faults       faultsim.Plan
	hasFaults    bool
	campaign     string
	shardOrd     int
	nextClone    int
	errTransient faultsim.TransientSendError

	// Send-batch gather (gather.go): gather[:gn] holds the gather slots
	// of the current batch, for table generation gtab; gnext is the
	// address of the slice element the last SendBatch call stopped before
	// and gpos that element's gather slot, so a call that continues from
	// it reuses the gather. gsink keeps the gathered router loads from
	// being optimized away.
	gather []gatherSlot
	gtab   *planSlots
	gnext  *[]byte
	gpos   int
	gn     int
	gsink  uint64

	// Prime replay (prime.go): primeSaved holds the stats EndPrime
	// restores, primeFlows the PrimeFlow token table, valid until then.
	primeSaved VantageStats
	primeFlows []primeFlow

	// simPending holds imported sim-state records (ImportSimState) not
	// yet claimed by a router birth; router() consults it so imported
	// bucket state materializes lazily, per touched router.
	simPending []byte

	// Stats counts prober-visible events at this vantage.
	Stats VantageStats
}

// VantageStats aggregates per-vantage counters.
type VantageStats struct {
	Sent     int64
	Received int64
	// PlanHits and PlanMisses count flow-plan table outcomes — every
	// routed probe is one or the other; without a table every probe is
	// a miss. Table effectiveness is observable here without affecting
	// results (plans are pure).
	PlanHits   int64
	PlanMisses int64
	// SharedPlanHits counts the hits on a core another vantage
	// published: a sibling shard, or an earlier vantage of the same
	// identity.
	SharedPlanHits int64
	// PlanEvictions counts misses that displaced a different flow's
	// core because its whole probe window was live — the conflict share
	// of PlanMisses.
	PlanEvictions int64
}

// NewVantage attaches a vantage to a deterministic AS of spec.Kind.
func (u *Universe) NewVantage(spec VantageSpec) *Vantage {
	if spec.ChainLen <= 0 {
		spec.ChainLen = 3
	}
	var nameKey uint64
	for _, c := range spec.Name {
		nameKey = nameKey*131 + uint64(c)
	}
	var pool []*AS
	for _, as := range u.ases {
		if as.Kind == spec.Kind && as.CPEOUIIndex == 0 {
			pool = append(pool, as)
		}
	}
	if len(pool) == 0 {
		panic(fmt.Sprintf("netsim: no AS of kind %s for vantage %q", spec.Kind, spec.Name))
	}
	as := pool[h(u.seed, 31, nameKey)%uint64(len(pool))]
	v := &Vantage{
		u:    u,
		spec: spec,
		id:   nameKey,
		as:   as,
		addr: ipv6.WithIID(ipv6.NthSubprefix(as.Prefixes[0], 64, 0xbeef).Addr(), 0x1),
		clk:  &u.clock,
	}
	v.srcU = ipv6.FromAddr(v.addr)
	v.parent = u.bfsTree(as.Idx)
	v.plans, v.reg = u.plansFor(planIdentity{name: nameKey, as: as.Idx, chainLen: spec.ChainLen})
	v.faults = u.cfg.Faults.PlanFor(spec.Name, "", 0)
	v.hasFaults = v.faults.Active()
	v.errTransient.Vantage = spec.Name
	u.registerVantage(v)
	return v
}

// planIdentity is everything plan computation reads from the vantage:
// the name key (access-chain router keys), the hosting AS (source
// address, BFS tree) and the access-chain length. Vantages that agree on
// all three compute identical plans and share one table.
type planIdentity struct {
	name     uint64
	as       int
	chainLen int
}

// identityShare is what every vantage of one identity shares: its
// self-sizing plan table and its router registry.
type identityShare struct {
	plans *planTable
	reg   *routerRegistry
}

// plansFor returns (creating on first use) the plan table and router
// registry shared by every vantage of one identity.
func (u *Universe) plansFor(id planIdentity) (*planTable, *routerRegistry) {
	u.planShareMu.Lock()
	defer u.planShareMu.Unlock()
	if u.planShare == nil {
		u.planShare = make(map[planIdentity]identityShare)
	}
	sh, ok := u.planShare[id]
	if !ok {
		sh = identityShare{newPlanTable(planTableMinSlots, planTableMaxSlots), newRouterRegistry()}
		u.planShare[id] = sh
	}
	return sh.plans, sh.reg
}

// Clone returns a shard vantage with the same identity — name, hosting
// AS, source address, access-chain router keys — but private mutable
// state: its own clock opened at virtual time start, its own delivery
// queue, buffer free list, counters, and router token buckets; it reads
// and publishes into the parent's plan table and router registry. The
// clone's clock joins the parent's ClockGroup so the campaign's
// coordinated watermark covers it. Clones must be created before the
// shards start running (Clone mutates the parent's group).
func (v *Vantage) Clone(start time.Duration) *Vantage {
	nv := &Vantage{
		u:        v.u,
		spec:     v.spec,
		id:       v.id,
		as:       v.as,
		addr:     v.addr,
		srcU:     v.srcU,
		clk:      NewClockAt(start),
		parent:   v.parent, // read-only after construction
		plans:    v.plans,
		reg:      v.reg,
		campaign: v.campaign,
		shardOrd: v.nextClone,
	}
	v.nextClone++
	nv.faults = v.u.cfg.Faults.PlanFor(v.spec.Name, nv.campaign, nv.shardOrd)
	nv.hasFaults = nv.faults.Active()
	nv.errTransient.Vantage = v.spec.Name
	if v.group == nil {
		v.group = &ClockGroup{}
	}
	v.group.Add(nv.clk)
	v.u.registerVantage(nv)
	return nv
}

// BeginShardGroup starts a fresh clock group for an upcoming sharded
// campaign: subsequent Clones join it, and earlier campaigns' dead
// shard clocks no longer weigh on Watermark/Horizon. Callers running
// more than one sharded campaign from the same vantage must call it
// before each campaign's clones are created. Clone ordinals restart at
// zero too, so fault rules keyed on campaign shard numbers re-match the
// new campaign's clones.
func (v *Vantage) BeginShardGroup() *ClockGroup {
	v.group = &ClockGroup{}
	v.nextClone = 0
	return v.group
}

// SetCampaign tags this vantage (and every clone created from it
// afterwards) with a campaign name, and re-resolves its fault plan so
// rules addressed to that campaign apply. The campaign supervisor tags
// each campaign's parent clone before sharding; untagged vantages keep
// the empty tag, which campaign-scoped rules never match. Must be
// called before the vantage probes or clones.
func (v *Vantage) SetCampaign(tag string) {
	v.campaign = tag
	v.faults = v.u.cfg.Faults.PlanFor(v.spec.Name, tag, v.shardOrd)
	v.hasFaults = v.faults.Active()
}

// Campaign returns the vantage's campaign tag ("" when untagged).
func (v *Vantage) Campaign() string { return v.campaign }

// ShardClocks returns the ClockGroup coordinating this vantage's cloned
// shards (nil when no clone exists). Its Watermark is the current
// campaign's committed virtual time.
func (v *Vantage) ShardClocks() *ClockGroup { return v.group }

// bfsTree computes the shortest-path tree over the AS adjacency graph.
func (u *Universe) bfsTree(root int) []int32 {
	parent := make([]int32, len(u.ases))
	for i := range parent {
		parent[i] = -2 // unvisited
	}
	parent[root] = -1
	queue := []int{root}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range u.ases[cur].Neighbors {
			if parent[nb] == -2 {
				parent[nb] = int32(cur)
				queue = append(queue, nb)
			}
		}
	}
	return parent
}

// Name returns the vantage's configured name.
func (v *Vantage) Name() string { return v.spec.Name }

// LocalAddr returns the vantage's source address.
func (v *Vantage) LocalAddr() netip.Addr { return v.addr }

// AS returns the autonomous system hosting the vantage.
func (v *Vantage) AS() *AS { return v.as }

// ChainLen returns the vantage's on-premise access path length.
func (v *Vantage) ChainLen() int { return v.spec.ChainLen }

// Now returns the current virtual time at this vantage.
func (v *Vantage) Now() time.Duration { return v.clk.Now() }

// Sleep advances virtual time; probers call this to pace departures.
func (v *Vantage) Sleep(d time.Duration) { v.clk.Sleep(d) }

// Row chunks: a vantage's first chunk holds rowChunkMax>>rowChunkRamp
// rows and each later one twice its predecessor's, up to rowChunkMax
// (18 KB), so a small campaign's clone leaves few rows unfilled and a
// large one allocates once per rowChunkMax births.
const (
	rowChunkBits = 8
	rowChunkMax  = 1 << rowChunkBits
	rowChunkRamp = 3
)

// row returns the row ref names.
func (v *Vantage) row(ref uint32) *routerRow {
	return &v.rows[ref>>rowChunkBits][ref&(rowChunkMax-1)]
}

// router returns (materializing into this vantage if needed) the router
// with ordinal ord. now is the virtual instant of the touching probe —
// the clock's current time on the live path, the replayed instant during
// priming — so a router born under prime replay opens its bucket at the
// same instant it would have opened at in the serial history.
func (v *Vantage) router(ord uint32, now time.Duration) *routerRow {
	if int(ord) < len(v.rowOf) {
		if ref := v.rowOf[ord]; ref != 0 {
			return v.row(ref - 1)
		}
	}
	return v.birth(ord, now)
}

// birth materializes router ord into a new row: the only packet-path
// read of the registry, for the router's key and AS. The ordinal index
// grows to the registry's size, doubling, so births of routers numbered
// since amortize.
func (v *Vantage) birth(ord uint32, now time.Duration) *routerRow {
	hop, n := v.reg.entry(ord)
	if n > len(v.rowOf) {
		if n > cap(v.rowOf) {
			v.rowOf = slices.Grow(v.rowOf, max(n, 2*cap(v.rowOf))-len(v.rowOf))
		}
		v.rowOf = v.rowOf[:n]
	}
	c := len(v.rows) - 1
	if c < 0 || len(v.rows[c]) == cap(v.rows[c]) {
		c++
		v.rows = append(v.rows, make([]routerRow, 0, rowChunkMax>>max(rowChunkRamp-c, 0)))
	}
	v.rows[c] = v.rows[c][:len(v.rows[c])+1]
	ref := uint32(c)<<rowChunkBits | uint32(len(v.rows[c])-1)
	v.rowOf[ord] = ref + 1
	r := v.row(ref)
	as := v.u.ases[hop.as]
	if tokens, last, ok := v.simLookup(hop.key); ok {
		// Imported sim state (checkpoint resume, campaign group priming)
		// overrides the birth instant: the router opens with the bucket
		// exactly where the exporting vantage's was.
		v.u.initRouter(r, hop.key, as, last)
		r.tokens = min(tokens, r.burst)
	} else {
		v.u.initRouter(r, hop.key, as, now)
	}
	return r
}

// stepRouter resolves the router for plan step idx by its ordinal:
// plans are shared and immutable, routers — with their live token
// buckets — are vantage-owned.
func (v *Vantage) stepRouter(plan *planCore, idx int, now time.Duration) *routerRow {
	return v.router(plan.steps[idx].ord, now)
}

// outcomes of path planning.
type outcomeKind uint8

const (
	outHost outcomeKind = iota
	outNoRoute
	outFilteredSilent
	outFilteredAdmin
)

// flowHash computes the per-flow load-balancing key the way the paper
// describes deployed routers doing it: addresses, protocol, and for
// TCP/UDP the port pair — but for ICMPv6 the checksum and identifier,
// which is precisely why Yarrp6 must hold its checksum constant per
// target via payload fudge.
func flowHash(seed uint64, d *wire.Decoded) uint64 {
	return flowHashU(seed, ipv6.FromAddr(d.IPv6.Src), ipv6.FromAddr(d.IPv6.Dst), d)
}

// flowHashU is flowHash with the address words already extracted; the
// vantage fast path supplies its cached source words and the destination
// words it needs anyway for the plan-table key. The mix chain is written
// out with fixed arity — same sequence and values as the variadic h —
// because this runs once per routed packet.
func flowHashU(seed uint64, s, t ipv6.U128, d *wire.Decoded) uint64 {
	var extra uint64
	switch d.Proto {
	case wire.ProtoTCP:
		extra = uint64(d.TCP.SrcPort)<<16 | uint64(d.TCP.DstPort)
	case wire.ProtoUDP:
		extra = uint64(d.UDP.SrcPort)<<16 | uint64(d.UDP.DstPort)
	case wire.ProtoICMPv6:
		extra = uint64(d.ICMPv6.Checksum)<<16 | uint64(d.ICMPv6.ID)
	}
	acc := mix64(seed + sm64Gamma)
	acc = mix64(acc ^ (s.Hi + sm64Gamma))
	acc = mix64(acc ^ (s.Lo + sm64Gamma))
	acc = mix64(acc ^ (t.Hi + sm64Gamma))
	acc = mix64(acc ^ (t.Lo + sm64Gamma))
	acc = mix64(acc ^ (uint64(d.Proto)<<32 | uint64(d.IPv6.FlowLabel) + sm64Gamma))
	acc = mix64(acc ^ (extra + sm64Gamma))
	return acc
}

// Per-packet stochastic draws. Loss, jitter, and unreachable generation
// are decided by keyed hashes of (flow identity, hop limit, virtual send
// time) rather than a stream RNG: the outcome for a given probe at a
// given time is a pure function of the universe seed, so concurrent
// shards reproduce a serial prober's draws exactly, while retransmitting
// the same packet at a later time rolls a fresh draw, as on a real
// network. The draw deliberately excludes the probe payload (and with it
// the Yarrp6 instance byte): shards of one campaign send byte-different
// probes that must share fates.
const (
	drawLoss    = 41
	drawJitter  = 42
	drawNoRoute = 43
	drawND      = 44
)

// hashFloat maps a hash key to a uniform float64 in [0, 1).
func hashFloat(key uint64) float64 {
	return float64(key>>11) / (1 << 53)
}

// Send routes one wire-format probe through the simulated internetwork,
// scheduling at most one reply for later Recv. Malformed packets error.
func (v *Vantage) Send(pkt []byte) error {
	var st SimStats
	err := v.send1(pkt, gatherSlot{}, &st)
	st.flushTo(&v.u.Stats)
	return err
}

// SendBatch routes pkts in order, advancing the virtual clock by gap
// after each packet — byte- and time-identical to a serial Send/Sleep
// loop — and stops early as soon as a reply becomes deliverable, so a
// batched prober drains at exactly the instants a per-probe loop would
// have. Shared-universe stat atomics are deferred into the vantage's
// pending delta and flushed every few thousand packets and at
// FlushStats; the clock itself still advances per packet (per-packet
// draws are keyed on the exact send time, and clock-group watermarks
// stay fine-grained).
//
// The batch is gathered before it is routed (gather.go). A call that
// continues where the previous one stopped — pkts starting at the slice
// element that call stopped before — reuses the gather, so a batch that
// stops early for every few replies is still gathered once.
func (v *Vantage) SendBatch(pkts [][]byte, gap time.Duration) (int, bool, error) {
	g := v.gatherBatch(pkts)
	for i := range pkts {
		var gs gatherSlot
		if g != nil {
			gs = g[i]
		}
		if err := v.send1(pkts[i], gs, &v.pend); err != nil {
			v.gatherStop(pkts, g, i)
			return i, v.deliverable(), err
		}
		v.clk.Sleep(gap)
		if v.deliverable() {
			if v.pend.PacketsRouted >= pendFlushEvery {
				v.pend.flushTo(&v.u.Stats)
			}
			v.gatherStop(pkts, g, i+1)
			return i + 1, true, nil
		}
	}
	if v.pend.PacketsRouted >= pendFlushEvery {
		v.pend.flushTo(&v.u.Stats)
	}
	v.gatherStop(pkts, g, len(pkts))
	return len(pkts), false, nil
}

// pendFlushEvery bounds how many batched sends may accumulate in the
// pending stat delta before it is pushed to the shared atomics.
const pendFlushEvery = 4096

// FlushStats publishes the pending batched-send stat delta to the
// shared universe counters. Yarrp6 calls it when a run ends; universe
// stats are documented as exact only while no campaign is in flight.
func (v *Vantage) FlushStats() { v.pend.flushTo(&v.u.Stats) }

// deliverable reports whether a queued reply's delivery time has
// arrived.
func (v *Vantage) deliverable() bool {
	return len(v.queue) > 0 && v.queue[0].at <= v.clk.Now()
}

// send1 is the shared routing core of Send and SendBatch: it decodes
// and routes one probe, accumulating universe-stat contributions into
// st instead of the shared atomics. gs is the probe's gather slot, zero
// when it was not gathered.
func (v *Vantage) send1(pkt []byte, gs gatherSlot, st *SimStats) error {
	if err := v.dec.Decode(pkt); err != nil {
		return fmt.Errorf("netsim: undecodable probe: %w", err)
	}
	d := &v.dec
	if v.hasFaults {
		now := v.clk.Now()
		if v.faults.CrashNow(now) {
			// Fatal: the vantage's send path is dead. The packet was not
			// sent; every further attempt fails the same way.
			st.FaultCrashDenials++
			at, _ := v.faults.CrashAt()
			return &faultsim.CrashError{Vantage: v.spec.Name, Shard: v.shardOrd, At: at}
		}
		if v.faults.DrawTransient(v.id, now) {
			// EAGAIN-shaped: the packet was not sent, a retry at a later
			// instant redraws independently.
			st.FaultTransientErrs++
			v.errTransient.At = now
			return &v.errTransient
		}
		if v.faults.Stalled(now) {
			// The probe departs and vanishes; the prober sees nothing.
			v.Stats.Sent++
			st.FaultStallDrops++
			return nil
		}
	}
	v.Stats.Sent++
	st.PacketsRouted++

	plan := v.gatheredPlan(d, gs)
	if plan == nil {
		plan = v.lookupPlan(d)
	}
	now := v.clk.Now()
	// The per-packet draw key folds the cached flow hash with the hop
	// limit (the pktKey of old: h(flowHash(...), 40, hopLimit)).
	pk := h(plan.fh, 40, uint64(d.IPv6.HopLimit))
	switch vd, r, idx := v.decide(plan, pk, d.IPv6.HopLimit, hostAnswers(plan, d), now); vd {
	case vNoReply:
		st.NDSilentDrops++
	case vLost:
		st.LossDropped++
	case vFiltered:
		st.FilteredDrops++
	case vUnresponsive:
		st.UnresponsiveDrops++
	case vRateLimited:
		st.RateLimitDropped++
	case vTimeExceeded:
		st.TimeExceededSent++
		v.scheduleError(st, r, wire.ICMPv6TimeExceeded, 0, pkt, plan, idx, now, pk)
	case vUnreach:
		code := uint8(wire.CodeAddrUnreachable)
		switch {
		case plan.outcome == outFilteredAdmin:
			code = wire.CodeAdminProhibited
		case plan.outcome == outNoRoute && plan.reject:
			code = wire.CodeRejectRoute
		case plan.outcome == outNoRoute:
			code = wire.CodeNoRoute
		}
		st.ErrorsSent++
		v.scheduleError(st, r, wire.ICMPv6DstUnreach, code, pkt, plan, idx, now, pk)
	case vHost:
		v.hostReply(st, pkt, plan, now, pk)
	}
	return nil
}

// verdict is a probe's fate as decide rules it.
type verdict uint8

const (
	vNoReply      verdict = iota // a nonexistent host's gateway stays silent (ND draw)
	vLost                        // per-traversal loss
	vFiltered                    // blackholed no-route or a silently filtering border
	vUnresponsive                // the answering router never emits ICMPv6
	vRateLimited                 // the answering router's token bucket is empty
	vTimeExceeded                // Time Exceeded from the answering router
	vUnreach                     // Destination Unreachable from the answering router
	vHost                        // the destination host answers the probe itself
)

// decide is the routing decision of one probe of plan at hop limit ttl
// departing at now, pk its draw key: the loss draw, the no-route
// blackhole draw, the neighbor-discovery draw and the answering router's
// token-bucket consume — the only simulator state a probe changes.
// answers reports that a reached destination answers the probe itself
// (hostAnswers). It returns the verdict and, when a router answers or is
// asked to, that router and its plan step. send1 maps the verdict to
// counters and a reply; the prime replay runs it for the bucket effect
// alone, so a replayed schedule leaves exactly the buckets sending it
// would have.
func (v *Vantage) decide(plan *planCore, pk uint64, ttl uint8, answers bool, now time.Duration) (verdict, *routerRow, int) {
	n := len(plan.steps)
	idx, ok := int(ttl)-1, vTimeExceeded
	if idx < n {
		// Hop-limit expiry before the path plan ends.
		if v.lost(pk, now, 2*(idx+1)) {
			return vLost, nil, 0
		}
	} else {
		idx, ok = int(plan.errorIdx), vUnreach
		switch plan.outcome {
		case outNoRoute, outFilteredAdmin:
			// Unreachable generation is far less dependable than Time
			// Exceeded on the real Internet: many networks blackhole
			// unallocated space silently.
			if plan.outcome == outNoRoute && hashFloat(h(pk, drawNoRoute, uint64(now))) < 0.65 {
				return vFiltered, nil, 0
			}
			if v.lost(pk, now, 2*(idx+1)) {
				return vLost, nil, 0
			}
		case outFilteredSilent:
			return vFiltered, nil, 0
		default:
			// Destination /64 reached.
			if v.lost(pk, now, 2*(n+1)) {
				return vLost, nil, 0
			}
			if answers {
				return vHost, nil, 0
			}
			// No such host: the gateway's neighbor discovery fails and
			// it reports address-unreachable some of the time, like any
			// error: an unresponsive gateway stays silent, and one whose
			// token bucket is empty is rate-limited.
			if hashFloat(h(pk, drawND, uint64(now))) >= 0.6 {
				return vNoReply, nil, 0
			}
		}
	}
	r := v.stepRouter(plan, idx, now)
	if r.unresponsive {
		return vUnresponsive, r, idx
	}
	if !r.allowICMP(now) {
		return vRateLimited, r, idx
	}
	return ok, r, idx
}

// hostAnswers reports whether plan's destination answers the decoded
// probe itself — an echo reply, a port unreachable or a RST from a live
// host — instead of leaving its gateway's neighbor discovery to fail.
func hostAnswers(plan *planCore, d *wire.Decoded) bool {
	return plan.exists && (d.Proto == wire.ProtoICMPv6 && d.ICMPv6.Type == wire.ICMPv6EchoRequest ||
		d.Proto == wire.ProtoUDP || d.Proto == wire.ProtoTCP)
}

// hostReply answers a probe that reached a live host (vHost): an echo
// reply — unless the host's AS filters echo — a port unreachable or a
// RST, after the round-trip to the path's end.
func (v *Vantage) hostReply(st *SimStats, pkt []byte, plan *planCore, now time.Duration, pk uint64) {
	d := &v.dec
	rtt := plan.steps[len(plan.steps)-1].rtt + v.jitter(pk, now)
	switch d.Proto {
	case wire.ProtoICMPv6:
		if v.u.ases[plan.destAS].BlockEcho {
			st.FilteredDrops++
			return
		}
		st.EchoRepliesSent++
		payload := d.Payload
		if max := wire.MinMTU - wire.IPv6HeaderLen - wire.ICMPv6HeaderLen; len(payload) > max {
			// The return path, like the quote path, is MinMTU-bound (the
			// simulator does not model fragmentation), and every prober
			// Recv buffer is MinMTU-sized, so the tail was never
			// observable; capping also keeps the reply inside any pool
			// buffer.
			payload = payload[:max]
		}
		bi := v.getBuf(wire.IPv6HeaderLen + wire.ICMPv6HeaderLen + len(payload))
		n := wire.BuildEchoReply(v.bufs[bi], d.IPv6.Dst, v.addr, &d.ICMPv6, payload, 64)
		v.deliverReply(st, bi, n, now+rtt, pk, now)
	case wire.ProtoUDP:
		st.PortUnreachSent++
		bi := v.getBuf(wire.IPv6HeaderLen + wire.ICMPv6HeaderLen + len(pkt))
		n := wire.BuildICMPv6Error(v.bufs[bi], wire.ICMPv6DstUnreach, wire.CodePortUnreachable, d.IPv6.Dst, v.addr, pkt, 64)
		v.deliverReply(st, bi, n, now+rtt, pk, now)
	case wire.ProtoTCP:
		st.TCPRstsSent++
		bi := v.getBuf(wire.IPv6HeaderLen + wire.TCPHeaderLen)
		n := wire.BuildTCPRst(v.bufs[bi], d.IPv6.Dst, v.addr, &d.TCP, 64)
		v.deliverReply(st, bi, n, now+rtt, pk, now)
	}
}

// scheduleError builds and enqueues an ICMPv6 error from router r quoting
// the probe, arriving after the round-trip to step idx.
func (v *Vantage) scheduleError(st *SimStats, r *routerRow, typ, code uint8, probe []byte, plan *planCore, idx int, now time.Duration, pk uint64) {
	quote := probe
	if r.truncateQuote && len(quote) > 48 {
		// Legacy gear quoting IPv4-style: header plus 8 bytes.
		quote = quote[:48]
	}
	if max := wire.MinMTU - wire.IPv6HeaderLen - wire.ICMPv6HeaderLen; len(quote) > max {
		quote = quote[:max]
	}
	bi := v.getBuf(wire.IPv6HeaderLen + wire.ICMPv6HeaderLen + len(quote))
	n := wire.BuildICMPv6Error(v.bufs[bi], typ, code, r.addr.Addr(), v.addr, quote, 64)
	rtt := plan.steps[idx].rtt + v.jitter(pk, now)
	v.deliverReply(st, bi, n, now+rtt, pk, now)
}

// deliverReply applies the reply-side fault plane — truncation,
// corruption, delayed-burst release — to one built reply before
// enqueueing it. With no faults configured it is a direct deliver.
func (v *Vantage) deliverReply(st *SimStats, bi int32, n int, t time.Duration, pk uint64, now time.Duration) {
	if v.hasFaults {
		const hdr = wire.IPv6HeaderLen + wire.ICMPv6HeaderLen
		if n > hdr && v.faults.DrawTruncate(pk, now) {
			// Cut into the body: the bytes carrying recoverable probe
			// state are gone, and the stale outer length/checksum make
			// the damage visible to the prober's parser, as on real
			// networks.
			n = hdr + (n-hdr)/4
			st.FaultTruncated++
		}
		if n > hdr && v.faults.DrawCorrupt(pk, now) {
			off, mask := v.faults.CorruptAt(pk, now, n-hdr)
			v.bufs[bi][hdr+off] ^= mask
			st.FaultCorrupted++
		}
		if until, ok := v.faults.DelayedUntil(t); ok {
			t = until
			st.FaultDelayed++
		}
	}
	v.deliver(bi, n, t)
}

// jitter returns the probe's return-path delay variation.
func (v *Vantage) jitter(pk uint64, now time.Duration) time.Duration {
	return time.Duration(h(pk, drawJitter, uint64(now)) % uint64(2*time.Millisecond))
}

// lost rolls per-traversal loss over hops link crossings (forward and
// return combined by the caller). The survival probabilities are pure
// functions of the configured loss rate and the hop count, so they come
// from the universe's precomputed table — entries are math.Pow outputs
// verbatim, so the draw threshold is bit-identical to computing the
// power per probe — with a live Pow fallback for paths beyond the
// table.
func (v *Vantage) lost(pk uint64, now time.Duration, hops int) bool {
	t := v.u.lossSurvive
	if t == nil {
		return false
	}
	var survive float64
	if hops < len(t) {
		survive = t[hops]
	} else {
		survive = math.Pow(1-float64(v.u.cfg.LossPercent)/100, float64(hops))
	}
	return hashFloat(h(pk, drawLoss, uint64(now))) > survive
}

// smallBufSize is the small reply-buffer class: ample for every reply
// generated from this module's own probes (echo replies, RSTs, and
// errors quoting ≤128-byte probes).
const smallBufSize = 256

// smallBufChunk is how many small buffers the pool carves from one
// allocation when it grows: 4 KB a chunk, so a clone that needs few
// buffers holds little more than it uses, and one that needs many makes
// a sixteenth of the objects.
const smallBufChunk = 16

// getBuf returns the index of a free reply buffer able to hold n bytes,
// growing the pool only when no recycled buffer of the class is
// available. The small class grows a chunk at a time: the new buffers
// past the one returned go on its free stack, last first, so they are
// handed out in index order.
func (v *Vantage) getBuf(n int) int32 {
	free := &v.freeSmall
	if n > smallBufSize {
		free = &v.freeFull
	}
	if k := len(*free); k > 0 {
		bi := (*free)[k-1]
		*free = (*free)[:k-1]
		return bi
	}
	if n > smallBufSize {
		v.bufs = append(v.bufs, make([]byte, wire.MinMTU))
		return int32(len(v.bufs) - 1)
	}
	chunk := make([]byte, smallBufChunk*smallBufSize)
	first := int32(len(v.bufs))
	for i := range smallBufChunk {
		v.bufs = append(v.bufs, chunk[i*smallBufSize:(i+1)*smallBufSize:(i+1)*smallBufSize])
	}
	for bi := first + smallBufChunk - 1; bi > first; bi-- {
		v.freeSmall = append(v.freeSmall, bi)
	}
	return first
}

// putBuf returns pool buffer bi to its size-class free stack.
func (v *Vantage) putBuf(bi int32) {
	if len(v.bufs[bi]) > smallBufSize {
		v.freeFull = append(v.freeFull, bi)
	} else {
		v.freeSmall = append(v.freeSmall, bi)
	}
}

// deliver enqueues n reply bytes held in pool buffer bi (ownership
// transfers to the queue) for Recv at time t.
func (v *Vantage) deliver(bi int32, n int, t time.Duration) {
	v.queue.push(delivery{at: t, buf: bi, n: int32(n)})
}

// Recv copies the next reply whose delivery time has arrived into buf,
// returning its length, and recycles the reply's internal buffer. ok is
// false when nothing is pending at the current virtual time. Callers own
// only the bytes copied into buf; the simulator's buffer is reused by a
// subsequent Send.
func (v *Vantage) Recv(buf []byte) (int, bool) {
	if len(v.queue) == 0 || v.queue[0].at > v.clk.Now() {
		return 0, false
	}
	d := v.queue.pop()
	v.Stats.Received++
	n := copy(buf, v.bufs[d.buf][:d.n])
	v.putBuf(d.buf)
	return n, true
}

// RecvBatch copies every reply deliverable at the current virtual time
// — at most len(sizes) of them — back-to-back into buf, recording each
// reply's length in sizes, and recycling the internal buffers. It
// returns the reply count; replies come out in the exact order repeated
// Recv calls would have produced (heap order on delivery time).
func (v *Vantage) RecvBatch(buf []byte, sizes []int) int {
	now := v.clk.Now()
	n, off := 0, 0
	for n < len(sizes) {
		if len(v.queue) == 0 || v.queue[0].at > now {
			break
		}
		if len(buf)-off < int(v.queue[0].n) {
			break
		}
		d := v.queue.pop()
		v.Stats.Received++
		m := copy(buf[off:], v.bufs[d.buf][:d.n])
		v.putBuf(d.buf)
		sizes[n] = m
		off += m
		n++
	}
	return n
}

// Pending reports how many replies are queued (delivered or in flight).
func (v *Vantage) Pending() int { return len(v.queue) }

// NextDeliveryAt returns the earliest queued reply's delivery time; ok
// is false when the queue is empty. Probers use it to fast-forward
// their drain schedule across stretches of virtual time where nothing
// can arrive.
func (v *Vantage) NextDeliveryAt() (time.Duration, bool) {
	if len(v.queue) == 0 {
		return 0, false
	}
	return v.queue[0].at, true
}

// ExportPending visits every queued (undelivered) reply in delivery
// order without disturbing the queue, handing the callback each reply's
// delivery instant and bytes; the bytes are only valid during the
// callback. Campaign checkpointing captures in-flight replies this way
// so a resumed run folds them at exactly the instants the uninterrupted
// run would have.
func (v *Vantage) ExportPending(fn func(at time.Duration, data []byte)) {
	q := append(deliveryQueue(nil), v.queue...)
	for len(q) > 0 {
		d := q.pop()
		fn(d.at, v.bufs[d.buf][:d.n])
	}
}

// InjectReply enqueues a copy of reply bytes for delivery at virtual
// instant at — the resume-side counterpart of ExportPending.
func (v *Vantage) InjectReply(at time.Duration, data []byte) {
	bi := v.getBuf(len(data))
	n := copy(v.bufs[bi], data)
	v.deliver(bi, n, at)
}

// delivery is one scheduled reply: a pool buffer index plus its valid
// length. Entries are unboxed, 16-byte, pointer-free values — no
// interface conversions and no GC write barriers on the packet path.
type delivery struct {
	at  time.Duration
	buf int32
	n   int32
}

// deliveryQueue is a binary min-heap on arrival time, operated directly
// on the slice. The sift order replicates container/heap exactly (strict
// less-than comparisons, identical swap sequence), so replacing the boxed
// heap changed no delivery order — not even among equal timestamps.
type deliveryQueue []delivery

func (q *deliveryQueue) push(it delivery) {
	*q = append(*q, it)
	q.up(len(*q) - 1)
}

func (q *deliveryQueue) pop() delivery {
	old := *q
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	q.down(0, n)
	it := old[n]
	*q = old[:n]
	return it
}

func (q deliveryQueue) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if q[i].at <= q[j].at {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (q deliveryQueue) down(i, n int) {
	for {
		j1 := 2*i + 1
		if j1 >= n {
			return
		}
		j := j1
		if j2 := j1 + 1; j2 < n && q[j2].at < q[j1].at {
			j = j2
		}
		if q[i].at <= q[j].at {
			return
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
}
