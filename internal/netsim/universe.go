// Package netsim is the study's Internet substrate: a deterministic,
// packet-level simulation of an IPv6 internetwork with the properties the
// paper's methodology confronts — a vast, sparsely provisioned address
// space organized as per-AS subnet hierarchies; mandated ICMPv6 rate
// limiting implemented as per-router token buckets; per-flow ECMP load
// balancing keyed on the fields real routers hash (including the ICMPv6
// checksum); heterogeneous filtering policy; and edge networks whose CPE
// routers answer from EUI-64 source addresses.
//
// Probers interact with the simulator only through wire-format packets via
// the Vantage type, which satisfies the prober-side Conn interface: the
// full Yarrp6 encode/decode path (state block, checksum fudge, quotation
// recovery) is exercised against bytes the simulator routed and quoted.
//
// The simulator is safe for concurrent vantages. Every response-side
// decision is a pure function of (universe seed, probe bytes, virtual
// send time); each vantage owns all state mutated on its packet path —
// virtual clock, lazily materialized router token buckets, delivery
// queue, scratch buffers — and universe-wide event counters are atomic.
// The coordinated-clock invariant for sharded campaigns: shard vantages
// (Vantage.Clone) own disjoint, ordered windows of virtual time — the
// minimum shard clock is the campaign's committed virtual time and only
// ever advances — so a sharded campaign that replays a single prober's
// (packet, time) schedule elicits the identical replies regardless of
// goroutine interleaving. Token-bucket state is owned by the
// materializing vantage and carried across shard windows explicitly: the
// campaign primes each clone's buckets to the serial schedule's levels at
// its window start (prime.go, ExportSimState/ImportSimState); core's
// package comment states what that replay leaves out.
package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
	"weak"

	"beholder/internal/bgp"
	"beholder/internal/faultsim"
	"beholder/internal/ipv6"
)

// AS is one autonomous system in the simulated topology.
type AS struct {
	Idx  int
	ASN  uint32
	Kind ASKind
	Tier int // 1 core, 2 regional, 3 edge

	Neighbors []int // adjacency by AS index

	Prefixes    []netip.Prefix // announced customer/service space
	InfraPrefix netip.Prefix   // router numbering space
	InfraRIR    bool           // infra space is RIR-registered, not advertised
	EquivGroup  int            // >0: organization spanning several ASNs

	// Policy toward transit probes and probes to hosts.
	BlockUDP    bool
	BlockTCP    bool
	BlockEcho   bool
	RejectRoute bool // answers unallocated space with reject-route instead of no-route

	LoadBalanced bool
	LBWays       int

	// CPEOUIIndex is nonzero for large eyeball ISPs whose customer
	// premises routers respond from EUI-64 addresses; it selects the
	// manufacturer OUI (Table 7: two manufacturers in two ISPs dominate).
	CPEOUIIndex int

	// CDN marks hosting ASes operating anycast front ends; a
	// configured fraction of their provisioned /64s are aliased —
	// every interface identifier beneath them answers probes.
	CDN bool
}

// Universe is the simulated internetwork: topology, routing table, and
// the default virtual clock. Everything mutable during a campaign lives
// with the vantage that owns it (clock when cloned, router token
// buckets, delivery queues); the universe itself is read-only on the
// packet path except for the Stats counters, which are updated
// atomically, so any number of vantages may probe concurrently.
type Universe struct {
	cfg   Config
	seed  uint64
	ases  []*AS
	byASN map[uint32]*AS
	table *bgp.Table
	clock Clock

	// lossSurvive[h] is the probability a probe survives h link
	// crossings at the configured loss rate — math.Pow outputs
	// precomputed once so the per-probe loss draw is a table load. Nil
	// when loss is disabled.
	lossSurvive []float64

	// planShare hands every vantage of one identity (a named vantage
	// at its attachment, all its shard clones, and later vantages
	// attached the same way) one plan table and one router registry:
	// plans are pure functions of (seed, identity, flow), so a later
	// campaign — or a sibling shard — starts from the flows already
	// planned. Guarded by planShareMu at vantage creation only; the
	// packet path touches the table through atomics and the registry
	// under its own lock, once per computed plan and router birth.
	planShareMu sync.Mutex
	planShare   map[planIdentity]identityShare

	// vantages tracks every vantage attached to this universe, weakly:
	// ResetState must flush their pending stat deltas before zeroing
	// Stats, but bench loops create a fresh vantage per Reset and a
	// strong registry would pin every dead one (with its buffer pools)
	// for the universe's lifetime. A full list or a reset drops dead entries.
	vantMu     sync.Mutex
	vantages   []weak.Pointer[Vantage]
	vantSerial uint32 // last serial handed to a vantage (plan publisher mark)

	// Stats counts globally observable simulator events; tests assert on
	// these to validate mechanism behaviour (e.g. rate-limit suppression).
	// Updated with atomic adds; read them only while no campaign runs
	// (or via StatsSnapshot, which loads atomically).
	Stats SimStats
}

// SimStats aggregates simulator-side event counts.
type SimStats struct {
	PacketsRouted     int64
	TimeExceededSent  int64
	RateLimitDropped  int64
	UnresponsiveDrops int64
	ErrorsSent        int64 // destination unreachable family
	EchoRepliesSent   int64
	TCPRstsSent       int64
	PortUnreachSent   int64
	LossDropped       int64
	FilteredDrops     int64
	NDSilentDrops     int64 // a nonexistent host's gateway stayed silent (neighbor discovery)

	// Fault-injection plane counters (internal/faultsim): zero unless
	// Config.Faults injects something. CrashDenials counts sends refused
	// by a crashed vantage, StallDrops probes swallowed inside a stall
	// window, TransientErrs EAGAIN-shaped send failures, Truncated and
	// Corrupted damaged replies, Delayed replies pushed to the end of a
	// delay-burst window.
	FaultCrashDenials  int64
	FaultStallDrops    int64
	FaultTransientErrs int64
	FaultTruncated     int64
	FaultCorrupted     int64
	FaultDelayed       int64
}

// simCounters lists SimStats' counter fields in declaration order, each
// by its offset and its metric stem: the one list the pending flush,
// Sub, StatsSnapshot and Each walk. Offsets keep the list static, so the
// flush that follows every Send builds nothing.
var simCounters = [...]struct {
	off  uintptr
	stem string
}{
	{unsafe.Offsetof(SimStats{}.PacketsRouted), "packets_routed"},
	{unsafe.Offsetof(SimStats{}.TimeExceededSent), "time_exceeded_sent"},
	{unsafe.Offsetof(SimStats{}.RateLimitDropped), "rate_limit_dropped"},
	{unsafe.Offsetof(SimStats{}.UnresponsiveDrops), "unresponsive_drops"},
	{unsafe.Offsetof(SimStats{}.ErrorsSent), "errors_sent"},
	{unsafe.Offsetof(SimStats{}.EchoRepliesSent), "echo_replies_sent"},
	{unsafe.Offsetof(SimStats{}.TCPRstsSent), "tcp_rsts_sent"},
	{unsafe.Offsetof(SimStats{}.PortUnreachSent), "port_unreach_sent"},
	{unsafe.Offsetof(SimStats{}.LossDropped), "loss_dropped"},
	{unsafe.Offsetof(SimStats{}.FilteredDrops), "filtered_drops"},
	{unsafe.Offsetof(SimStats{}.NDSilentDrops), "nd_silent_drops"},
	{unsafe.Offsetof(SimStats{}.FaultCrashDenials), "fault_crash_denials"},
	{unsafe.Offsetof(SimStats{}.FaultStallDrops), "fault_stall_drops"},
	{unsafe.Offsetof(SimStats{}.FaultTransientErrs), "fault_transient_errs"},
	{unsafe.Offsetof(SimStats{}.FaultTruncated), "fault_truncated"},
	{unsafe.Offsetof(SimStats{}.FaultCorrupted), "fault_corrupted"},
	{unsafe.Offsetof(SimStats{}.FaultDelayed), "fault_delayed"},
}

// counter returns s's i'th counter in simCounters.
func (s *SimStats) counter(i int) *int64 {
	return (*int64)(unsafe.Add(unsafe.Pointer(s), simCounters[i].off))
}

// Each calls fn with every counter's metric stem (the snake_case field
// name, "rate_limit_dropped" for RateLimitDropped) and value, in
// declaration order.
func (s *SimStats) Each(fn func(stem string, n int64)) {
	for i, c := range simCounters {
		fn(c.stem, *s.counter(i))
	}
}

// Sub returns s minus prev, field for field — the event counts of the
// window between two snapshots.
func (s SimStats) Sub(prev SimStats) SimStats {
	for i := range simCounters {
		*s.counter(i) -= *prev.counter(i)
	}
	return s
}

// flushTo adds s, a vantage's pending counts, to the shared stats dst
// with atomic adds — skipping zero counters, so an uneventful batch
// costs one add — and zeroes s.
func (s *SimStats) flushTo(dst *SimStats) {
	for i := range simCounters {
		if n := *s.counter(i); n != 0 {
			atomic.AddInt64(dst.counter(i), n)
		}
	}
	*s = SimStats{}
}

// CPE manufacturer OUIs (locally administered documentation values).
var cpeOUIs = [][3]byte{
	{0x00, 0x00, 0x00}, // unused: index 0 means "no CPE deployment"
	{0x00, 0x1d, 0xd2},
	{0xfc, 0x94, 0xe3},
	{0x84, 0xa8, 0xe4},
}

// NewUniverse constructs the deterministic topology described by cfg.
func NewUniverse(cfg Config) *Universe {
	u := &Universe{
		cfg:   cfg,
		seed:  uint64(cfg.Seed)*0x9e37 + 0x423f,
		byASN: make(map[uint32]*AS),
		table: bgp.NewTable(),
	}
	u.buildASGraph()
	u.allocateAddressSpace()
	if cfg.LossPercent > 0 {
		// Covers every plannable path (the AS walk is bounded at 64
		// ASes of at most 3 hops plus access chain and descent, and the
		// loss draw doubles the hop count); longer paths fall back to a
		// live Pow in Vantage.lost.
		p := float64(cfg.LossPercent) / 100
		u.lossSurvive = make([]float64, 1024)
		for i := range u.lossSurvive {
			u.lossSurvive[i] = math.Pow(1-p, float64(i))
		}
	}
	return u
}

// Config returns the generating configuration.
func (u *Universe) Config() Config { return u.cfg }

// Table returns the global BGP view of the simulated internetwork.
func (u *Universe) Table() *bgp.Table { return u.table }

// ASes returns all autonomous systems.
func (u *Universe) ASes() []*AS { return u.ases }

// ASByASN returns the AS originating asn.
func (u *Universe) ASByASN(asn uint32) (*AS, bool) {
	a, ok := u.byASN[asn]
	return a, ok
}

// Clock returns the universe's virtual clock.
func (u *Universe) Clock() *Clock { return &u.clock }

// SetFaults installs (or, with nil, clears) the fault-injection plane
// for vantages created from now on. Existing vantages keep the plans
// they resolved at creation; set faults before attaching or cloning the
// vantages they should afflict. Must not run concurrently with vantage
// creation.
func (u *Universe) SetFaults(f *faultsim.Config) { u.cfg.Faults = f }

// ResetState clears universe-held mutable state (the shared clock and the
// event counters) while keeping the generated topology, so that
// successive campaigns start from identical conditions, the way the
// paper's trials on different days do. Vantages batch their stat
// contributions locally between flushes, so reset first folds every live
// vantage's pending delta into Stats and then zeroes it — otherwise a
// later flush would resurrect pre-reset events, and a campaign's
// counters could read negative against the zeroed baseline. Router token
// buckets live with the vantage that materialized them; attach a fresh
// vantage after Reset to probe from pristine router state (every caller
// in this module already does). Must not run concurrently with a
// campaign.
func (u *Universe) ResetState() {
	u.clock.reset()
	u.vantMu.Lock()
	u.compactVantages()
	for _, wp := range u.vantages {
		if v := wp.Value(); v != nil {
			v.FlushStats()
		}
	}
	u.vantMu.Unlock()
	u.Stats = SimStats{}
}

// registerVantage weakly tracks a vantage for ResetState's pending-delta
// flush and gives it its serial. NewVantage and Clone call it. A daemon
// clones for every campaign and never resets, so a full list drops its
// collected entries, then keeps room for as many again, before it grows.
func (u *Universe) registerVantage(v *Vantage) {
	u.vantMu.Lock()
	u.vantSerial++
	v.serial = u.vantSerial
	if len(u.vantages) == cap(u.vantages) {
		u.compactVantages()
		u.vantages = slices.Grow(u.vantages, len(u.vantages))
	}
	u.vantages = append(u.vantages, weak.Make(v))
	u.vantMu.Unlock()
}

// compactVantages drops the entries whose vantage has been collected;
// vantMu must be held.
func (u *Universe) compactVantages() {
	u.vantages = slices.DeleteFunc(u.vantages, func(wp weak.Pointer[Vantage]) bool { return wp.Value() == nil })
}

// StatsSnapshot returns a consistent copy of the universe event counters
// using atomic loads, safe to call while campaigns run. Vantages batch
// contributions locally between flushes, so a mid-campaign snapshot
// trails the true totals by at most one flush window per vantage.
func (u *Universe) StatsSnapshot() SimStats {
	var out SimStats
	for i := range simCounters {
		*out.counter(i) = atomic.LoadInt64(u.Stats.counter(i))
	}
	return out
}

func (u *Universe) buildASGraph() {
	cfg := u.cfg
	n := cfg.NumASes
	if n < cfg.NumTier1+2 {
		panic(fmt.Sprintf("netsim: NumASes %d too small", n))
	}
	u.ases = make([]*AS, n)
	numT2 := n / cfg.Tier2Frac
	if numT2 < 2 {
		numT2 = 2
	}
	for i := 0; i < n; i++ {
		as := &AS{Idx: i, ASN: 1000 + uint32(i)}
		key := h(u.seed, 1, uint64(i))
		switch {
		case i < cfg.NumTier1:
			as.Tier = 1
			as.Kind = KindTransit
		case i < cfg.NumTier1+numT2:
			as.Tier = 2
			as.Kind = KindTransit
		default:
			as.Tier = 3
			pct := key % 100
			switch {
			case pct < uint64(cfg.EyeballFrac):
				as.Kind = KindEyeballISP
			case pct < uint64(cfg.EyeballFrac+cfg.HostingFrac):
				as.Kind = KindHosting
			case pct < uint64(cfg.EyeballFrac+cfg.HostingFrac+cfg.EnterpriseFrac):
				as.Kind = KindEnterprise
			default:
				as.Kind = KindUniversity
			}
		}
		// Policy draws.
		pk := h(u.seed, 2, uint64(i))
		as.BlockUDP = as.Tier == 3 && chance(h(pk, 1), uint64(cfg.BlockUDPPercent), 100)
		as.BlockTCP = as.Tier == 3 && chance(h(pk, 2), uint64(cfg.BlockTCPPercent), 100)
		as.BlockEcho = as.Tier == 3 && chance(h(pk, 3), uint64(cfg.BlockEchoPercent), 100)
		as.RejectRoute = chance(h(pk, 4), uint64(cfg.RejectRoutePct), 100)
		as.CDN = as.Kind == KindHosting && chance(h(pk, 6), uint64(cfg.CDNPercent), 100)
		if as.CDN {
			// Content businesses depend on reachability: CDN front
			// ends answer echo regardless of edge filtering fashion.
			as.BlockEcho = false
		}
		if as.Tier <= 2 && chance(h(pk, 5), uint64(cfg.LBFracPercent), 100) {
			as.LoadBalanced = true
			as.LBWays = cfg.LBWays
		}
		u.ases[i] = as
		u.byASN[as.ASN] = as
	}

	// Tier-1 full mesh.
	link := func(a, b int) {
		u.ases[a].Neighbors = append(u.ases[a].Neighbors, b)
		u.ases[b].Neighbors = append(u.ases[b].Neighbors, a)
	}
	for i := 0; i < cfg.NumTier1; i++ {
		for j := i + 1; j < cfg.NumTier1; j++ {
			link(i, j)
		}
	}
	// Tier-2: homed to 2-3 tier-1s plus a few tier-2 peerings.
	t2lo, t2hi := cfg.NumTier1, cfg.NumTier1+numT2
	for i := t2lo; i < t2hi; i++ {
		key := h(u.seed, 3, uint64(i))
		homes := int(between(h(key, 1), 2, 3))
		for k := 0; k < homes; k++ {
			link(i, int(h(key, 2, uint64(k))%uint64(cfg.NumTier1)))
		}
		if i > t2lo && chance(h(key, 3), 40, 100) {
			peer := t2lo + int(h(key, 4)%uint64(i-t2lo))
			link(i, peer)
		}
	}
	// Edge: homed to 1-2 tier-2s (occasionally a tier-1).
	for i := t2hi; i < n; i++ {
		key := h(u.seed, 4, uint64(i))
		homes := int(between(h(key, 1), 1, 2))
		for k := 0; k < homes; k++ {
			if chance(h(key, 2, uint64(k)), 5, 100) {
				link(i, int(h(key, 3, uint64(k))%uint64(cfg.NumTier1)))
			} else {
				link(i, t2lo+int(h(key, 4, uint64(k))%uint64(numT2)))
			}
		}
	}

	// Equivalent-organization groups: clusters of edge ASes acting as one
	// organization; the group's members number their routers from the
	// group leader's space, creating the ASN bookkeeping challenge §6
	// handles with equivalence sets.
	for g := 1; g <= cfg.EquivOrgGroups; g++ {
		key := h(u.seed, 5, uint64(g))
		lead := t2hi + int(h(key, 1)%uint64(n-t2hi))
		size := int(between(h(key, 2), 2, 3))
		prev := lead
		for m := 1; m < size; m++ {
			sib := t2hi + int(h(key, 3, uint64(m))%uint64(n-t2hi))
			if sib == lead {
				continue
			}
			u.ases[sib].EquivGroup = g
			u.ases[lead].EquivGroup = g
			u.table.AddEquivalent(u.ases[prev].ASN, u.ases[sib].ASN)
			prev = sib
		}
	}

	// Designate the CPE eyeball ISPs: the largest-index eyeball ASes get
	// manufacturer OUIs 1 and 2 (distinct manufacturers, distinct ISPs).
	assigned := 0
	for i := n - 1; i >= 0 && assigned < cfg.CPEISPs; i-- {
		if u.ases[i].Kind == KindEyeballISP {
			assigned++
			u.ases[i].CPEOUIIndex = assigned
		}
	}
}

func (u *Universe) allocateAddressSpace() {
	cfg := u.cfg
	alloc32 := uint64(0) // sequential /32 allocation counter in 2400::/12
	alloc48 := uint64(0) // sequential /48 allocation counter in 2600::/12
	allocRIR := uint64(0)
	for _, as := range u.ases {
		key := h(u.seed, 6, uint64(as.Idx))
		nPfx := int(between(h(key, 1), 1, uint64(2*cfg.PrefixesPerAS-1)))
		if as.Tier < 3 {
			nPfx = 1 // carriers announce a single service block
		}
		for j := 0; j < nPfx; j++ {
			var p netip.Prefix
			if as.Kind == KindEnterprise {
				// Enterprises hold provider-independent /48s.
				hi := 0x2600_0000_0000_0000 | (alloc48 << 16)
				alloc48++
				p = netip.PrefixFrom(ipv6.U128{Hi: hi, Lo: 0}.Addr(), 48)
			} else {
				hi := 0x2400_0000_0000_0000 | (alloc32 << 32)
				alloc32++
				p = netip.PrefixFrom(ipv6.U128{Hi: hi, Lo: 0}.Addr(), 32)
			}
			as.Prefixes = append(as.Prefixes, p)
			u.table.Announce(p, as.ASN)
		}
		// Router numbering space: RIR-only for a configured fraction, a
		// sibling organization's block for equivalence-group members,
		// otherwise the AS's own first prefix.
		switch {
		case chance(h(key, 2), uint64(cfg.RIRPercent), 100):
			hi := 0x2a00_0000_0000_0000 | (allocRIR << 32)
			allocRIR++
			as.InfraPrefix = netip.PrefixFrom(ipv6.U128{Hi: hi, Lo: 0}.Addr(), 32)
			as.InfraRIR = true
			u.table.AddRIR(as.InfraPrefix, as.ASN)
		default:
			as.InfraPrefix = as.Prefixes[0]
		}
	}
	// Equivalence groups share the leader's infrastructure space.
	for g := 1; g <= cfg.EquivOrgGroups; g++ {
		var lead *AS
		for _, as := range u.ases {
			if as.EquivGroup == g {
				if lead == nil {
					lead = as
				} else {
					as.InfraPrefix = lead.InfraPrefix
					as.InfraRIR = lead.InfraRIR
				}
			}
		}
	}
}

// RandomAS returns a uniformly random AS of the given kind, or nil when
// none exists.
func (u *Universe) RandomAS(rng *rand.Rand, kind ASKind) *AS {
	var pool []*AS
	for _, as := range u.ases {
		if as.Kind == kind {
			pool = append(pool, as)
		}
	}
	if len(pool) == 0 {
		return nil
	}
	return pool[rng.Intn(len(pool))]
}

// linkLatency returns the deterministic one-way latency of the link
// entering hop key k.
func (u *Universe) linkLatency(k RouterKey) time.Duration {
	base := u.cfg.BaseHopLatency
	extra := time.Duration(h(u.seed, 7, uint64(k.ASN), k.K1, k.K2)%8000) * time.Microsecond
	return base + extra
}
