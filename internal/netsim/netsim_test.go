package netsim

import (
	"math/rand"
	"net/netip"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"beholder/internal/ipv6"
	"beholder/internal/wire"
)

func testUniverse(t testing.TB) *Universe {
	t.Helper()
	return NewUniverse(TestConfig(42))
}

func TestUniverseDeterminism(t *testing.T) {
	a := NewUniverse(TestConfig(7))
	b := NewUniverse(TestConfig(7))
	if len(a.ASes()) != len(b.ASes()) {
		t.Fatal("AS counts differ for same seed")
	}
	for i := range a.ASes() {
		x, y := a.ASes()[i], b.ASes()[i]
		if x.ASN != y.ASN || x.Kind != y.Kind || len(x.Prefixes) != len(y.Prefixes) {
			t.Fatalf("AS %d differs: %+v vs %+v", i, x, y)
		}
		for j := range x.Prefixes {
			if x.Prefixes[j] != y.Prefixes[j] {
				t.Fatalf("prefix differs at AS %d", i)
			}
		}
	}
	c := NewUniverse(TestConfig(8))
	diff := false
	for i := range a.ASes() {
		if a.ASes()[i].Kind != c.ASes()[i].Kind {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("different seeds produced identical kind assignments")
	}
}

func TestUniverseStructure(t *testing.T) {
	u := testUniverse(t)
	if got := u.Table().NumPrefixes(); got == 0 {
		t.Fatal("no prefixes announced")
	}
	kinds := make(map[ASKind]int)
	cpe := 0
	for _, as := range u.ASes() {
		kinds[as.Kind]++
		if len(as.Neighbors) == 0 {
			t.Errorf("AS %d isolated", as.ASN)
		}
		if as.Tier == 3 && len(as.Prefixes) == 0 {
			t.Errorf("edge AS %d has no prefixes", as.ASN)
		}
		if as.CPEOUIIndex > 0 {
			cpe++
		}
		for _, p := range as.Prefixes {
			if p != ipv6.CanonicalPrefix(p) {
				t.Errorf("non-canonical prefix %s", p)
			}
			// Global unicast space.
			if b := p.Addr().As16(); b[0]>>5 != 1 {
				t.Errorf("prefix %s outside 2000::/3", p)
			}
		}
	}
	for k := KindTransit; k < numASKinds; k++ {
		if kinds[k] == 0 {
			t.Errorf("no ASes of kind %s", k)
		}
	}
	if cpe != u.Config().CPEISPs {
		t.Errorf("CPE ISPs = %d want %d", cpe, u.Config().CPEISPs)
	}
}

func TestBFSTreeReachesAllASes(t *testing.T) {
	u := testUniverse(t)
	v := u.NewVantage(VantageSpec{Name: "test", Kind: KindUniversity, ChainLen: 3})
	for i := range u.ASes() {
		if v.parent[i] == -2 {
			t.Errorf("AS index %d unreachable from vantage", i)
		}
	}
}

func TestRandomLANIsProvisioned(t *testing.T) {
	u := testUniverse(t)
	rng := rand.New(rand.NewSource(1))
	found := 0
	for _, kind := range []ASKind{KindEyeballISP, KindHosting, KindEnterprise, KindUniversity} {
		as := u.RandomAS(rng, kind)
		if as == nil {
			t.Fatalf("no AS of kind %s", kind)
		}
		for i := 0; i < 20; i++ {
			lan, ok := u.RandomLAN(rng, as)
			if !ok {
				continue
			}
			found++
			if lan.Bits() != 64 {
				t.Fatalf("RandomLAN returned /%d", lan.Bits())
			}
			if !u.LANExists(lan.Addr()) {
				t.Fatalf("sampled LAN %s not provisioned per LANExists", lan)
			}
		}
	}
	if found == 0 {
		t.Fatal("no LANs sampled at all")
	}
}

func TestHostExistence(t *testing.T) {
	u := testUniverse(t)
	rng := rand.New(rand.NewSource(2))
	as := u.RandomAS(rng, KindHosting)
	var lan netip.Prefix
	for {
		var ok bool
		lan, ok = u.RandomLAN(rng, as)
		if ok && u.ServerCount(lan, as) >= 2 {
			break
		}
	}
	// Gateway and servers exist.
	if !u.HostExists(u.GatewayAddr(lan, as)) {
		t.Error("gateway does not exist")
	}
	if !u.HostExists(ipv6.WithIID(lan.Addr(), 2)) {
		t.Error("server ::2 does not exist")
	}
	// A fixed pseudo-random IID does not.
	if u.HostExists(ipv6.WithIID(lan.Addr(), 0x1234_5678_1234_5678)) {
		t.Error("fixed IID host should not exist")
	}
	// EUI-64 hosts round-trip through the existence check.
	easRng := rand.New(rand.NewSource(3))
	eas := u.RandomAS(easRng, KindEnterprise)
	for i := 0; i < 50; i++ {
		elan, ok := u.RandomLAN(easRng, eas)
		if !ok || u.EUIHostCount(elan, eas) == 0 {
			continue
		}
		ha := u.EUIHostAddr(elan, eas, 0)
		if !u.HostExists(ha) {
			t.Errorf("EUI-64 host %s does not exist", ha)
		}
		return
	}
	t.Log("no EUI host found to verify (acceptable in small universes)")
}

func TestCPEGatewayUsesEUI64(t *testing.T) {
	u := testUniverse(t)
	rng := rand.New(rand.NewSource(4))
	var cpeAS *AS
	for _, as := range u.ASes() {
		if as.CPEOUIIndex > 0 {
			cpeAS = as
			break
		}
	}
	if cpeAS == nil {
		t.Fatal("no CPE ISP")
	}
	lan, ok := u.RandomLAN(rng, cpeAS)
	if !ok {
		t.Fatal("no LAN in CPE ISP")
	}
	gw := u.GatewayAddr(lan, cpeAS)
	if !ipv6.IsEUI64IID(ipv6.IID(gw)) {
		t.Errorf("CPE gateway %s lacks EUI-64 IID", gw)
	}
	mac, _ := ipv6.MACFromEUI64(ipv6.IID(gw))
	oui := cpeOUIs[cpeAS.CPEOUIIndex]
	if mac[0] != oui[0] || mac[1] != oui[1] || mac[2] != oui[2] {
		t.Errorf("gateway MAC %x does not carry OUI %x", mac, oui)
	}
	// Non-CPE AS gateways use ::1.
	other := u.RandomAS(rng, KindHosting)
	olan, ok := u.RandomLAN(rng, other)
	if ok {
		if got := u.GatewayAddr(olan, other); ipv6.IID(got) != 1 {
			t.Errorf("non-CPE gateway IID = %x want 1", ipv6.IID(got))
		}
	}
}

// buildEchoProbe constructs an ICMPv6 echo-request probe.
func buildEchoProbe(src, dst netip.Addr, ttl uint8) []byte {
	buf := make([]byte, wire.IPv6HeaderLen+wire.ICMPv6HeaderLen+12)
	hdr := wire.IPv6Header{HopLimit: ttl, Src: src, Dst: dst}
	icmp := wire.ICMPv6Header{Type: wire.ICMPv6EchoRequest, ID: wire.AddrChecksum(dst), Seq: 80}
	n := wire.BuildPacket(buf, &hdr, wire.ProtoICMPv6, nil, nil, &icmp, make([]byte, 12))
	return buf[:n]
}

// traceOnce runs a simple synchronous traceroute against the vantage.
func traceOnce(v *Vantage, dst netip.Addr, maxTTL int) map[int]netip.Addr {
	hops := make(map[int]netip.Addr)
	buf := make([]byte, wire.MinMTU)
	for ttl := 1; ttl <= maxTTL; ttl++ {
		_ = v.Send(buildEchoProbe(v.LocalAddr(), dst, uint8(ttl)))
		v.Sleep(50 * time.Millisecond) // generous pacing: no rate limiting
	}
	v.Sleep(2 * time.Second)
	var d wire.Decoded
	for {
		n, ok := v.Recv(buf)
		if !ok {
			break
		}
		if err := d.Decode(buf[:n]); err != nil {
			continue
		}
		if d.ICMPv6.Type != wire.ICMPv6TimeExceeded {
			continue
		}
		var q wire.Decoded
		if err := q.Decode(d.Payload); err != nil {
			continue
		}
		hops[int(q.IPv6.HopLimit)] = d.IPv6.Src
	}
	return hops
}

func TestTracerouteWalksPath(t *testing.T) {
	u := testUniverse(t)
	v := u.NewVantage(VantageSpec{Name: "US-EDU-T", Kind: KindUniversity, ChainLen: 4})
	rng := rand.New(rand.NewSource(5))
	as := u.RandomAS(rng, KindHosting)
	lan, ok := u.RandomLAN(rng, as)
	if !ok {
		t.Fatal("no LAN")
	}
	dst := u.GatewayAddr(lan, as)
	hops := traceOnce(v, dst, 24)
	if len(hops) < 5 {
		t.Fatalf("discovered only %d hops: %v", len(hops), hops)
	}
	// Hop addresses must be globally scoped IPv6 and mostly contiguous.
	for ttl, a := range hops {
		if !a.Is6() {
			t.Errorf("hop %d addr %s not IPv6", ttl, a)
		}
	}
	// The first on-premise hop must belong to the vantage AS's space.
	first, ok := hops[1]
	if !ok {
		t.Fatal("hop 1 missing at 20pps-equivalent pacing")
	}
	if got := u.Table().OriginAny(first); got != v.AS().ASN {
		t.Errorf("hop 1 origin ASN = %d want %d", got, v.AS().ASN)
	}
}

func TestTraceStableAcrossRepeats(t *testing.T) {
	// Paris property: identical flow identity must traverse identical
	// routers even through load-balanced ASes.
	u := testUniverse(t)
	v := u.NewVantage(VantageSpec{Name: "stable", Kind: KindUniversity, ChainLen: 3})
	rng := rand.New(rand.NewSource(6))
	as := u.RandomAS(rng, KindEyeballISP)
	lan, ok := u.RandomLAN(rng, as)
	if !ok {
		t.Fatal("no LAN")
	}
	dst := u.GatewayAddr(lan, as)
	h1 := traceOnce(v, dst, 20)
	h2 := traceOnce(v, dst, 20)
	for ttl, a := range h1 {
		if b, ok := h2[ttl]; ok && a != b {
			t.Errorf("hop %d flapped: %s vs %s (flow identity constant)", ttl, a, b)
		}
	}
}

func TestEchoReplyFromExistingHost(t *testing.T) {
	u := testUniverse(t)
	v := u.NewVantage(VantageSpec{Name: "echo", Kind: KindUniversity, ChainLen: 3})
	rng := rand.New(rand.NewSource(7))
	// Find a hosting AS that does not filter echo.
	var as *AS
	for {
		as = u.RandomAS(rng, KindHosting)
		if !as.BlockEcho {
			break
		}
	}
	lan, ok := u.RandomLAN(rng, as)
	if !ok {
		t.Fatal("no LAN")
	}
	dst := u.GatewayAddr(lan, as)
	_ = v.Send(buildEchoProbe(v.LocalAddr(), dst, 64))
	v.Sleep(3 * time.Second)
	buf := make([]byte, wire.MinMTU)
	n, ok := v.Recv(buf)
	if !ok {
		t.Fatal("no reply to echo of existing host (could be loss; rerun with new seed)")
	}
	var d wire.Decoded
	if err := d.Decode(buf[:n]); err != nil {
		t.Fatal(err)
	}
	if d.ICMPv6.Type != wire.ICMPv6EchoReply {
		t.Fatalf("reply type %d want echo reply", d.ICMPv6.Type)
	}
	if d.IPv6.Src != dst {
		t.Errorf("echo reply source %s want %s", d.IPv6.Src, dst)
	}
}

func TestUDPPortUnreachableFromHost(t *testing.T) {
	u := testUniverse(t)
	v := u.NewVantage(VantageSpec{Name: "udp", Kind: KindUniversity, ChainLen: 3})
	rng := rand.New(rand.NewSource(8))
	var as *AS
	for {
		as = u.RandomAS(rng, KindHosting)
		if !as.BlockUDP {
			break
		}
	}
	lan, ok := u.RandomLAN(rng, as)
	if !ok {
		t.Fatal("no LAN")
	}
	dst := u.GatewayAddr(lan, as)
	buf := make([]byte, 128)
	hdr := wire.IPv6Header{HopLimit: 64, Src: v.LocalAddr(), Dst: dst}
	udp := wire.UDPHeader{SrcPort: wire.AddrChecksum(dst), DstPort: 80}
	n := wire.BuildPacket(buf, &hdr, wire.ProtoUDP, &udp, nil, nil, make([]byte, 12))
	_ = v.Send(buf[:n])
	v.Sleep(3 * time.Second)
	rbuf := make([]byte, wire.MinMTU)
	rn, ok := v.Recv(rbuf)
	if !ok {
		t.Fatal("no reply to UDP probe of existing host")
	}
	var d wire.Decoded
	if err := d.Decode(rbuf[:rn]); err != nil {
		t.Fatal(err)
	}
	if d.ICMPv6.Type != wire.ICMPv6DstUnreach || d.ICMPv6.Code != wire.CodePortUnreachable {
		t.Fatalf("reply %d/%d want port unreachable", d.ICMPv6.Type, d.ICMPv6.Code)
	}
}

func TestUnroutedTargetNoRoute(t *testing.T) {
	u := testUniverse(t)
	v := u.NewVantage(VantageSpec{Name: "unrouted", Kind: KindUniversity, ChainLen: 3})
	dst := ipv6.MustAddr("3fff::1") // never allocated by the generator
	// Retry a few times: the border's answer is subject to loss.
	for attempt := 0; attempt < 5; attempt++ {
		_ = v.Send(buildEchoProbe(v.LocalAddr(), dst, 64))
		v.Sleep(2 * time.Second)
		buf := make([]byte, wire.MinMTU)
		n, ok := v.Recv(buf)
		if !ok {
			continue
		}
		var d wire.Decoded
		if err := d.Decode(buf[:n]); err != nil {
			t.Fatal(err)
		}
		if d.ICMPv6.Type != wire.ICMPv6DstUnreach || d.ICMPv6.Code != wire.CodeNoRoute {
			t.Fatalf("reply %d/%d want no-route", d.ICMPv6.Type, d.ICMPv6.Code)
		}
		return
	}
	t.Fatal("no no-route response in 5 attempts")
}

func TestRateLimitingSuppressesBursts(t *testing.T) {
	u := testUniverse(t)
	v := u.NewVantage(VantageSpec{Name: "burst", Kind: KindUniversity, ChainLen: 3})
	rng := rand.New(rand.NewSource(9))
	as := u.RandomAS(rng, KindHosting)
	lan, _ := u.RandomLAN(rng, as)
	dst := u.GatewayAddr(lan, as)

	// Hammer TTL=1 with no pacing: the access router's bucket must empty.
	const probes = 3000
	for i := 0; i < probes; i++ {
		_ = v.Send(buildEchoProbe(v.LocalAddr(), dst, 1))
		v.Sleep(100 * time.Microsecond) // 10 kpps
	}
	if u.Stats.RateLimitDropped == 0 {
		t.Fatal("no rate-limit suppression under 10kpps TTL=1 hammering")
	}
	got := u.Stats.TimeExceededSent
	if got >= probes/2 {
		t.Errorf("TE sent %d of %d; expected heavy suppression", got, probes)
	}

	// After a quiet period the bucket refills and slow probing succeeds.
	v.Sleep(5 * time.Second)
	before := u.Stats.TimeExceededSent
	for i := 0; i < 20; i++ {
		_ = v.Send(buildEchoProbe(v.LocalAddr(), dst, 1))
		v.Sleep(50 * time.Millisecond) // 20 pps
	}
	sent := u.Stats.TimeExceededSent - before
	if sent < 15 {
		t.Errorf("slow probing after refill: %d of 20 TE", sent)
	}

	// A nonexistent host behind an unresponsive gateway: probes one
	// second apart never empty a bucket, so the gateway's silence is
	// unresponsiveness, never rate limiting. Every routed probe's fate is
	// counted exactly once, a silent neighbor-discovery draw included.
	silent := silentGatewayHost(t, u, v.Clone(0))
	sv := v.Clone(0)
	from := u.StatsSnapshot()
	for range 200 {
		_ = sv.Send(buildEchoProbe(sv.LocalAddr(), silent, 64))
		sv.Sleep(time.Second)
	}
	st := u.StatsSnapshot().Sub(from)
	if st.RateLimitDropped != 0 || st.UnresponsiveDrops == 0 {
		t.Errorf("silent gateway: RateLimitDropped %d, UnresponsiveDrops %d; want 0 and some",
			st.RateLimitDropped, st.UnresponsiveDrops)
	}
	fates := st.TimeExceededSent + st.RateLimitDropped + st.UnresponsiveDrops + st.ErrorsSent +
		st.EchoRepliesSent + st.TCPRstsSent + st.PortUnreachSent + st.LossDropped + st.FilteredDrops +
		st.NDSilentDrops
	if st.PacketsRouted != 200 || fates != st.PacketsRouted {
		t.Errorf("silent gateway: %d probes routed, %d counted in a fate counter (%+v)", st.PacketsRouted, fates, st)
	}
}

// silentGatewayHost finds, through scratch vantage v, an address in a
// provisioned /64 that no host holds, whose gateway never emits ICMPv6.
func silentGatewayHost(t *testing.T, u *Universe, v *Vantage) netip.Addr {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	for range 2000 {
		as := u.ASes()[rng.Intn(len(u.ASes()))]
		lan, ok := u.RandomLAN(rng, as)
		if !ok {
			continue
		}
		dst := ipv6.WithIID(lan.Addr(), 0x1234_5678_1234_5678)
		if err := v.dec.Decode(buildEchoProbe(v.LocalAddr(), dst, 64)); err != nil {
			t.Fatal(err)
		}
		plan := v.lookupPlan(&v.dec)
		if plan.outcome == outHost && !plan.exists && v.stepRouter(plan, int(plan.errorIdx), 0).unresponsive {
			return dst
		}
	}
	t.Fatal("no nonexistent host behind an unresponsive gateway")
	return netip.Addr{}
}

func TestRandomizedOrderAvoidsRateLimiting(t *testing.T) {
	// The paper's core claim in miniature: the same probe budget at the
	// same aggregate rate elicits far more hop-1 responses when TTLs are
	// interleaved than when TTL=1 probes arrive in one synchronized burst.
	u := testUniverse(t)
	rng := rand.New(rand.NewSource(10))
	as := u.RandomAS(rng, KindHosting)
	var dsts []netip.Addr
	for len(dsts) < 256 {
		lan, ok := u.RandomLAN(rng, as)
		if !ok {
			continue
		}
		dsts = append(dsts, u.GatewayAddr(lan, as))
	}
	const maxTTL = 8
	gap := time.Second / 2000 // 2 kpps

	// Sequential: all TTL=1 first (synchronized trace rounds).
	vSeq := u.NewVantage(VantageSpec{Name: "seq", Kind: KindUniversity, ChainLen: 3})
	for ttl := 1; ttl <= maxTTL; ttl++ {
		for _, d := range dsts {
			_ = vSeq.Send(buildEchoProbe(vSeq.LocalAddr(), d, uint8(ttl)))
			vSeq.Sleep(gap)
		}
	}
	hop1Seq := countHop1(vSeq)

	u.ResetState()
	// Randomized: same probes, TTL-interleaved.
	vRnd := u.NewVantage(VantageSpec{Name: "seq", Kind: KindUniversity, ChainLen: 3})
	order := rng.Perm(len(dsts) * maxTTL)
	for _, k := range order {
		d := dsts[k%len(dsts)]
		ttl := k/len(dsts) + 1
		_ = vRnd.Send(buildEchoProbe(vRnd.LocalAddr(), d, uint8(ttl)))
		vRnd.Sleep(gap)
	}
	hop1Rnd := countHop1(vRnd)

	if hop1Rnd <= hop1Seq {
		t.Errorf("randomized hop-1 responses %d not better than sequential %d", hop1Rnd, hop1Seq)
	}
	if float64(hop1Rnd) < 0.7*float64(len(dsts)) {
		t.Errorf("randomized hop-1 responsiveness too low: %d/%d", hop1Rnd, len(dsts))
	}
}

func countHop1(v *Vantage) int {
	v.Sleep(3 * time.Second)
	buf := make([]byte, wire.MinMTU)
	var d, q wire.Decoded
	n1 := 0
	for {
		n, ok := v.Recv(buf)
		if !ok {
			break
		}
		if d.Decode(buf[:n]) != nil || d.ICMPv6.Type != wire.ICMPv6TimeExceeded {
			continue
		}
		if q.Decode(d.Payload) != nil {
			continue
		}
		if q.IPv6.HopLimit == 1 {
			n1++
		}
	}
	return n1
}

func TestQuoteCarriesProbePayload(t *testing.T) {
	u := testUniverse(t)
	v := u.NewVantage(VantageSpec{Name: "quote", Kind: KindUniversity, ChainLen: 3})
	rng := rand.New(rand.NewSource(11))
	as := u.RandomAS(rng, KindHosting)
	lan, _ := u.RandomLAN(rng, as)
	dst := u.GatewayAddr(lan, as)
	probe := buildEchoProbe(v.LocalAddr(), dst, 2)
	for attempt := 0; attempt < 5; attempt++ {
		_ = v.Send(probe)
		v.Sleep(2 * time.Second)
		buf := make([]byte, wire.MinMTU)
		n, ok := v.Recv(buf)
		if !ok {
			continue
		}
		var d wire.Decoded
		if err := d.Decode(buf[:n]); err != nil {
			t.Fatal(err)
		}
		if len(d.Payload) != len(probe) {
			t.Fatalf("quotation %d bytes, probe %d", len(d.Payload), len(probe))
		}
		return
	}
	t.Fatal("no TE received in 5 attempts")
}

func TestResetState(t *testing.T) {
	u := testUniverse(t)
	v := u.NewVantage(VantageSpec{Name: "reset", Kind: KindUniversity, ChainLen: 3})
	_ = v.Send(buildEchoProbe(v.LocalAddr(), ipv6.MustAddr("3fff::1"), 1))
	if u.Stats.PacketsRouted == 0 {
		t.Fatal("no packets routed")
	}
	u.ResetState()
	if u.Stats.PacketsRouted != 0 || u.Clock().Now() != 0 {
		t.Error("ResetState did not clear state")
	}
}

// TestResetStateFlushesPendingDeltas: batched sends defer their stat
// contributions into a per-vantage delta; ResetState must fold those
// pending deltas before zeroing, or a later flush resurrects pre-reset
// events into the zeroed counters.
func TestResetStateFlushesPendingDeltas(t *testing.T) {
	u := testUniverse(t)
	v := u.NewVantage(VantageSpec{Name: "reset-pend", Kind: KindUniversity, ChainLen: 3})
	pkt := buildEchoProbe(v.LocalAddr(), ipv6.MustAddr("3fff::1"), 1)
	if _, _, err := v.SendBatch([][]byte{pkt, pkt, pkt}, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	u.ResetState()
	if u.Stats.PacketsRouted != 0 {
		t.Fatalf("reset left PacketsRouted = %d", u.Stats.PacketsRouted)
	}
	// Without the reset-time flush this would re-add the pre-reset sends.
	v.FlushStats()
	if got := u.Stats.PacketsRouted; got != 0 {
		t.Errorf("pre-reset delta resurrected after reset: PacketsRouted = %d", got)
	}
	// Fresh activity counts from a zero baseline.
	if err := v.Send(pkt); err != nil {
		t.Fatal(err)
	}
	if got := u.StatsSnapshot().PacketsRouted; got != 1 {
		t.Errorf("post-reset PacketsRouted = %d, want 1", got)
	}
}

// TestSimStatsCounterList: simCounters, which the pending flush, Sub,
// StatsSnapshot and Each walk, lists every int64 field of SimStats
// exactly once, in declaration order, under distinct metric stems — a
// counter added to the struct but not to the list fails here.
func TestSimStatsCounterList(t *testing.T) {
	typ := reflect.TypeFor[SimStats]()
	stems := make(map[string]bool)
	i := 0
	for f := range typ.NumField() {
		field := typ.Field(f)
		if field.Type != reflect.TypeFor[int64]() {
			continue
		}
		if i >= len(simCounters) || simCounters[i].off != field.Offset {
			t.Fatalf("counter %d is not SimStats.%s", i, field.Name)
		}
		if stem := simCounters[i].stem; stem == "" || stems[stem] {
			t.Fatalf("SimStats.%s has an empty or repeated stem %q", field.Name, stem)
		}
		stems[simCounters[i].stem] = true
		i++
	}
	if i != len(simCounters) {
		t.Fatalf("the list has %d counters, SimStats %d", len(simCounters), i)
	}
}

// TestPlanEvictions: in a table capped at one slot, distinct flows
// competing for it must be counted as evictions — the conflict-miss
// share of PlanMisses.
func TestPlanEvictions(t *testing.T) {
	u := testUniverse(t)
	v := u.NewVantage(VantageSpec{Name: "evict", Kind: KindUniversity, ChainLen: 3})
	v.plans = newPlanTable(1, 1) // every distinct flow collides
	rng := rand.New(rand.NewSource(9))
	as := u.RandomAS(rng, KindHosting)
	var dsts []netip.Addr
	for len(dsts) < 8 {
		lan, ok := u.RandomLAN(rng, as)
		if !ok {
			continue
		}
		dsts = append(dsts, u.GatewayAddr(lan, as))
	}
	for _, d := range dsts {
		_ = v.Send(buildEchoProbe(v.LocalAddr(), d, 4))
		v.Sleep(time.Millisecond)
	}
	if v.Stats.PlanEvictions == 0 {
		t.Fatal("no plan evictions counted with a 1-slot cache")
	}
	if v.Stats.PlanEvictions >= v.Stats.PlanMisses {
		t.Fatalf("evictions %d must be below misses %d (first fill of a slot is not an eviction)",
			v.Stats.PlanEvictions, v.Stats.PlanMisses)
	}
}

func TestTruthSubnetsAreProvisioned(t *testing.T) {
	u := testUniverse(t)
	rng := rand.New(rand.NewSource(12))
	as := u.RandomAS(rng, KindEnterprise)
	subs := u.TruthSubnets(as, 64, 500)
	if len(subs) == 0 {
		t.Fatal("no truth subnets")
	}
	for _, s := range subs {
		if s.Bits() == 64 {
			if !u.LANExists(s.Addr()) {
				t.Errorf("truth /64 %s not provisioned", s)
			}
		}
	}
}

func TestCloneSharesIdentityOwnsState(t *testing.T) {
	u := testUniverse(t)
	v := u.NewVantage(VantageSpec{Name: "clone", Kind: KindUniversity, ChainLen: 3})
	c := v.Clone(5 * time.Second)
	if c.LocalAddr() != v.LocalAddr() || c.AS() != v.AS() || c.Name() != v.Name() {
		t.Fatal("clone identity differs from parent")
	}
	if c.Now() != 5*time.Second {
		t.Fatalf("clone clock opened at %v want 5s", c.Now())
	}
	c.Sleep(time.Second)
	if v.Now() != 0 {
		t.Fatal("clone sleep advanced the parent clock")
	}
	g := v.ShardClocks()
	if g == nil || g.Len() != 1 || g.Watermark() != 6*time.Second {
		t.Fatalf("clock group watermark wrong: %+v", g)
	}
	c2 := v.Clone(20 * time.Second)
	_ = c2
	if got := g.Watermark(); got != 6*time.Second {
		t.Fatalf("watermark %v want 6s (minimum member)", got)
	}
	if got := g.Horizon(); got != 20*time.Second {
		t.Fatalf("horizon %v want 20s", got)
	}
}

// TestConcurrentClonesDeterministic drives several clones concurrently
// (run under -race) and checks each clone's prober-visible results are a
// pure function of its own schedule: a second concurrent run reproduces
// every clone's reply count exactly.
func TestConcurrentClonesDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	u := testUniverse(t)
	rng := rand.New(rand.NewSource(20))
	as := u.RandomAS(rng, KindHosting)
	var dsts []netip.Addr
	for len(dsts) < 64 {
		lan, ok := u.RandomLAN(rng, as)
		if !ok {
			continue
		}
		dsts = append(dsts, u.GatewayAddr(lan, as))
	}
	const clones = 4
	run := func() [clones]int64 {
		v := u.NewVantage(VantageSpec{Name: "conc", Kind: KindUniversity, ChainLen: 3})
		var received [clones]int64
		var wg sync.WaitGroup
		for i := 0; i < clones; i++ {
			c := v.Clone(time.Duration(i) * time.Second)
			wg.Add(1)
			go func(i int, c *Vantage) {
				defer wg.Done()
				buf := make([]byte, wire.MinMTU)
				for j, d := range dsts {
					_ = c.Send(buildEchoProbe(c.LocalAddr(), d, uint8(j%8+1)))
					c.Sleep(10 * time.Millisecond)
					for {
						if _, ok := c.Recv(buf); !ok {
							break
						}
					}
				}
				c.Sleep(3 * time.Second)
				for {
					if _, ok := c.Recv(buf); !ok {
						break
					}
				}
				received[i] = c.Stats.Received
			}(i, c)
		}
		wg.Wait()
		return received
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("concurrent clone results differ across runs: %v vs %v", a, b)
	}
	total := int64(0)
	for _, n := range a {
		total += n
	}
	if total == 0 {
		t.Fatal("no clone received anything")
	}
}

func TestMalformedProbeRejected(t *testing.T) {
	u := testUniverse(t)
	v := u.NewVantage(VantageSpec{Name: "bad", Kind: KindUniversity, ChainLen: 3})
	if err := v.Send([]byte{1, 2, 3}); err == nil {
		t.Error("malformed probe accepted")
	}
}

func TestAliasedLANs(t *testing.T) {
	u := testUniverse(t)
	var cdn int
	var truth []netip.Prefix
	for _, as := range u.ASes() {
		if as.CDN {
			cdn++
			if as.Kind != KindHosting {
				t.Fatalf("CDN flag on %s AS %d", as.Kind, as.ASN)
			}
			if as.BlockEcho {
				t.Errorf("CDN AS %d blocks echo", as.ASN)
			}
			truth = append(truth, u.TruthAliasedLANs(as, 50)...)
		} else if got := u.TruthAliasedLANs(as, 50); len(got) != 0 {
			t.Fatalf("non-CDN AS %d reports %d aliased LANs", as.ASN, len(got))
		}
	}
	if cdn == 0 || len(truth) == 0 {
		t.Fatalf("cdn ASes = %d, aliased LANs = %d", cdn, len(truth))
	}
	// Aliasing is deterministic and consistent across the plan views.
	u2 := NewUniverse(TestConfig(42))
	rng := rand.New(rand.NewSource(5))
	for _, lan := range truth {
		rt, ok := u.Table().Lookup(lan.Addr())
		if !ok {
			t.Fatalf("aliased LAN %s unrouted", lan)
		}
		as, _ := u.ASByASN(rt.Origin)
		if !u2.LANAliased(lan, as) {
			t.Fatalf("aliasing of %s not deterministic", lan)
		}
		// Every random IID beneath an aliased LAN is a host.
		random := ipv6.WithIID(lan.Addr(), rng.Uint64())
		if !u.HostExists(random) {
			t.Fatalf("random IID %s in aliased LAN unanswered", random)
		}
		if !u.AddrAliased(random) {
			t.Fatalf("AddrAliased(%s) = false inside aliased LAN", random)
		}
	}
}

func TestAliasedLANAnswersEcho(t *testing.T) {
	u := testUniverse(t)
	v := u.NewVantage(VantageSpec{Name: "alias-echo", Kind: KindUniversity, ChainLen: 3})
	var lan netip.Prefix
	for _, as := range u.ASes() {
		if lans := u.TruthAliasedLANs(as, 1); len(lans) > 0 {
			lan = lans[0]
			break
		}
	}
	if !lan.IsValid() {
		t.Fatal("no aliased LAN found")
	}
	rng := rand.New(rand.NewSource(9))
	replies := 0
	const probes = 16
	for i := 0; i < probes; i++ {
		dst := ipv6.WithIID(lan.Addr(), rng.Uint64())
		_ = v.Send(buildEchoProbe(v.LocalAddr(), dst, 64))
		v.Sleep(2 * time.Second)
		buf := make([]byte, wire.MinMTU)
		for {
			n, ok := v.Recv(buf)
			if !ok {
				break
			}
			var d wire.Decoded
			if err := d.Decode(buf[:n]); err == nil &&
				d.Proto == wire.ProtoICMPv6 && d.ICMPv6.Type == wire.ICMPv6EchoReply && d.IPv6.Src == dst {
				replies++
			}
		}
	}
	// Per-probe loss over these long paths runs ~25%; a majority of a
	// decent sample must still answer.
	if replies < probes*6/10 {
		t.Errorf("aliased LAN answered %d/%d random-IID echoes", replies, probes)
	}
}

// TestOversizedEchoProbe sends an echo request whose payload exceeds
// what a MinMTU reply can mirror: the reply path must cap the echoed
// payload at the MinMTU bound (the pool's buffer size) instead of
// overrunning a recycled reply buffer.
func TestOversizedEchoProbe(t *testing.T) {
	u := testUniverse(t)
	v := u.NewVantage(VantageSpec{Name: "bigecho", Kind: KindUniversity, ChainLen: 3})
	rng := rand.New(rand.NewSource(7))
	var as *AS
	for {
		as = u.RandomAS(rng, KindHosting)
		if !as.BlockEcho {
			break
		}
	}
	lan, ok := u.RandomLAN(rng, as)
	if !ok {
		t.Fatal("no LAN")
	}
	dst := u.GatewayAddr(lan, as)

	payload := make([]byte, 2000) // far beyond MinMTU-48
	pkt := make([]byte, wire.IPv6HeaderLen+wire.ICMPv6HeaderLen+len(payload))
	// A handful of distinct flow identities sidesteps the per-packet
	// loss draw without weakening the overflow check.
	for id := uint16(1); id <= 8; id++ {
		hdr := wire.IPv6Header{HopLimit: 64, Src: v.LocalAddr(), Dst: dst}
		icmp := wire.ICMPv6Header{Type: wire.ICMPv6EchoRequest, ID: id, Seq: 80}
		n := wire.BuildPacket(pkt, &hdr, wire.ProtoICMPv6, nil, nil, &icmp, payload)
		if err := v.Send(pkt[:n]); err != nil {
			t.Fatal(err)
		}
	}
	v.Sleep(3 * time.Second)
	buf := make([]byte, wire.MinMTU)
	rn, ok := v.Recv(buf)
	if !ok {
		t.Fatal("no reply to oversized echo (could be loss; rerun with new seed)")
	}
	if rn > wire.MinMTU {
		t.Fatalf("reply length %d exceeds MinMTU", rn)
	}
	var d wire.Decoded
	if err := d.Decode(buf[:rn]); err != nil {
		t.Fatal(err)
	}
	if d.ICMPv6.Type != wire.ICMPv6EchoReply {
		t.Fatalf("reply type %d want echo reply", d.ICMPv6.Type)
	}
}
