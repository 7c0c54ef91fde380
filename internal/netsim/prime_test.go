package netsim

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"net/netip"
	"sort"
	"testing"
	"time"

	"beholder/internal/ipv6"
	"beholder/internal/wire"
)

// primeTargets samples gateway destinations across hosting ASes: their
// paths share the vantage's access chain, so an unpaced schedule drains
// the shared routers' ICMPv6 token buckets — the regime prime replay
// exists for.
func primeTargets(u *Universe, n int) []netip.Addr {
	rng := rand.New(rand.NewSource(17))
	out := make([]netip.Addr, 0, n)
	for len(out) < n {
		as := u.RandomAS(rng, KindHosting)
		lan, _ := u.RandomLAN(rng, as)
		out = append(out, u.GatewayAddr(lan, as))
	}
	return out
}

// primeSchedule visits the (target × TTL) domain in Yarrp6's round
// order — every target at TTL 1, then every target at TTL 2, … — for
// rounds passes at an unpaced 150µs inter-probe gap, calling
// fn(target index, ttl, instant) per probe. Several passes at this rate
// drain the shared access-chain buckets (burst ≤ 80, refill ≤ 400/s).
func primeSchedule(nTargets, maxTTL, rounds int, fn func(ti int, ttl uint8, at time.Duration)) time.Duration {
	const gap = 150 * time.Microsecond
	domain := nTargets * maxTTL * rounds
	for pos := 0; pos < domain; pos++ {
		fn(pos%nTargets, uint8(1+(pos/nTargets)%maxTTL), time.Duration(pos)*gap)
	}
	return time.Duration(domain) * gap
}

// simStateTokens decodes a sim-state blob's token levels by record.
func simStateTokens(t *testing.T, blob []byte) []float64 {
	t.Helper()
	if len(blob) < 4 {
		t.Fatalf("sim state blob only %d bytes", len(blob))
	}
	n := int(binary.LittleEndian.Uint32(blob))
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		_, tokens, _ := simEntry(blob[4:], i)
		out[i] = tokens
	}
	return out
}

// TestPrimeFastPathMatchesPrime pins the prime replay to the history it
// stands in for: really sending a probe schedule and replaying it
// through PrimeFlow/PrimeIdx must leave byte-identical exported bucket
// state — on a schedule fast enough to saturate the shared access
// routers, where any divergence in the replayed branch structure would
// surface as a token-level drift.
func TestPrimeFastPathMatchesPrime(t *testing.T) {
	u := testUniverse(t)
	v := u.NewVantage(VantageSpec{Name: "prime", Kind: KindUniversity, ChainLen: 3})
	targets := primeTargets(u, 12)
	const maxTTL = 8

	real := v.Clone(0)
	end := primeSchedule(len(targets), maxTTL, 16, func(ti int, ttl uint8, at time.Duration) {
		_ = real.Send(buildEchoProbe(real.LocalAddr(), targets[ti], ttl))
		real.Sleep(150 * time.Microsecond)
	})
	if real.Now() != end {
		t.Fatalf("real schedule ended at %v, want %v", real.Now(), end)
	}

	fast := v.Clone(0)
	fast.BeginPrime()
	toks := make([]int, len(targets))
	for i := range toks {
		toks[i] = -1
	}
	primeSchedule(len(targets), maxTTL, 16, func(ti int, ttl uint8, at time.Duration) {
		if toks[ti] < 0 {
			tok, err := fast.PrimeFlow(buildEchoProbe(fast.LocalAddr(), targets[ti], ttl))
			if err != nil {
				t.Fatal(err)
			}
			toks[ti] = tok
		}
		fast.PrimeIdx(toks[ti], ttl, at)
	})
	fast.EndPrime()

	blobReal := real.ExportSimState(nil)
	if !bytes.Equal(fast.ExportSimState(nil), blobReal) {
		t.Fatal("PrimeFlow/PrimeIdx replay and real sends leave different bucket state")
	}
	tokens := simStateTokens(t, blobReal)
	if len(tokens) == 0 {
		t.Fatal("schedule touched no routers")
	}
	drained := 0
	for _, tk := range tokens {
		if tk < 1 {
			drained++
		}
	}
	if drained == 0 {
		t.Fatal("no bucket drained below one token; the schedule did not reach saturation")
	}
}

// primeProbe is a probe target of the replay tests and the transport
// it is probed over.
type primeProbe struct {
	dst   netip.Addr
	proto uint8
}

// build returns p's probe from src at hop limit ttl. Its flow identity
// — the ICMPv6 checksum and identifier, or the port pair — is constant
// per target, as a Yarrp6 probe's is.
func (p primeProbe) build(src netip.Addr, ttl uint8) []byte {
	if p.proto == wire.ProtoICMPv6 {
		return buildEchoProbe(src, p.dst, ttl)
	}
	buf := make([]byte, wire.IPv6HeaderLen+wire.TCPHeaderLen+12)
	hdr := wire.IPv6Header{HopLimit: ttl, Src: src, Dst: p.dst}
	port := wire.AddrChecksum(p.dst)
	n := wire.BuildPacket(buf, &hdr, p.proto,
		&wire.UDPHeader{SrcPort: port, DstPort: 80},
		&wire.TCPHeader{SrcPort: port, DstPort: 80, Flags: wire.TCPSyn},
		nil, make([]byte, 12))
	return buf[:n]
}

// primeOutcomes are the destination outcomes outcomePool samples
// probes for: every branch of the routing decision past the path (Time
// Exceeded on the way is every probe's at a low hop limit).
var primeOutcomes = []string{
	"no-route", "reject-route", "admin-filtered", "silent-filtered",
	"echo-host", "echo-blocked", "udp-host", "tcp-host", "no-host",
}

// outcomePool samples per probes for each of primeOutcomes, every one
// on a path shorter than maxTTL hops, classifying candidates — LAN
// gateways, random interface identifiers, neighbouring /64s and
// unrouted space, over each transport — by the plan v computes for
// them. Policy-carrying ASes are tried first: reject-route, filtering
// and echo blocking are rare.
func outcomePool(t testing.TB, u *Universe, v *Vantage, per, maxTTL int) []primeProbe {
	t.Helper()
	cls := v.Clone(0)
	outcome := func(p primeProbe) string {
		if err := cls.dec.Decode(p.build(cls.LocalAddr(), 64)); err != nil {
			t.Fatal(err)
		}
		plan := cls.lookupPlan(&cls.dec)
		if len(plan.steps) >= maxTTL {
			return ""
		}
		switch {
		case plan.outcome == outNoRoute && plan.reject:
			return "reject-route"
		case plan.outcome == outNoRoute:
			return "no-route"
		case plan.outcome == outFilteredAdmin:
			return "admin-filtered"
		case plan.outcome == outFilteredSilent:
			return "silent-filtered"
		case !plan.exists:
			return "no-host"
		case p.proto == wire.ProtoUDP:
			return "udp-host"
		case p.proto == wire.ProtoTCP:
			return "tcp-host"
		case u.ases[plan.destAS].BlockEcho:
			return "echo-blocked"
		}
		return "echo-host"
	}
	var ases []*AS
	for _, as := range u.ASes() {
		if as.RejectRoute || as.BlockUDP || as.BlockTCP || as.BlockEcho {
			ases = append(ases, as)
		}
	}
	ases = append(ases, u.ASes()...)
	rng := rand.New(rand.NewSource(23))
	got := make(map[string][]primeProbe)
	add := func(dst netip.Addr) {
		for _, proto := range []uint8{wire.ProtoICMPv6, wire.ProtoUDP, wire.ProtoTCP} {
			p := primeProbe{dst, proto}
			if o := outcome(p); o != "" && len(got[o]) < per {
				got[o] = append(got[o], p)
			}
		}
	}
	for i := range per {
		add(netip.AddrFrom16([16]byte{0x3f, 0xff, 15: byte(i + 1)}))
	}
	for _, as := range ases {
		lan, ok := u.RandomLAN(rng, as)
		if !ok {
			continue
		}
		add(u.GatewayAddr(lan, as))
		add(ipv6.WithIID(lan.Addr(), rng.Uint64()))
		b := lan.Addr().As16()
		b[6], b[7] = byte(rng.Intn(256)), byte(rng.Intn(256))
		add(netip.AddrFrom16(b))
	}
	var out []primeProbe
	for _, o := range primeOutcomes {
		if len(got[o]) == 0 {
			t.Fatalf("no %s probe within %d hops in the test universe", o, maxTTL)
		}
		out = append(out, got[o]...)
	}
	return out
}

// TestPrimeRunMatchesPrime replays a saturating schedule through
// PrimeRun in uneven runs of 1, 7 and 64 probes and through PrimeIdx one
// probe at a time: the bucket state each leaves behind must be
// byte-equal to really sending the schedule. The schedule's targets are
// TestPrimeFastPathMatchesPrime's gateways, one of them undecodable (its
// flow fails to register, so its token is skipped, and a real send of it
// errors without effect), plus outcomePool's probes over all three
// transports, at hop limits past their paths' ends: every branch of the
// routing decision the replay shares with send is taken, which the real
// sends' counters confirm.
func TestPrimeRunMatchesPrime(t *testing.T) {
	const (
		maxTTL = 20
		rounds = 16
		gap    = 150 * time.Microsecond
		skip   = 5 // the target whose flow fails to register
	)
	u := testUniverse(t)
	v := u.NewVantage(VantageSpec{Name: "prime", Kind: KindUniversity, ChainLen: 3})
	var targets []primeProbe
	for _, dst := range primeTargets(u, 12) {
		targets = append(targets, primeProbe{dst, wire.ProtoICMPv6})
	}
	targets = append(targets, outcomePool(t, u, v, 2, maxTTL)...)
	probeOf := func(src netip.Addr, ti int, ttl uint8) []byte {
		p := targets[ti].build(src, ttl)
		if ti == skip {
			return p[:wire.IPv6HeaderLen-1]
		}
		return p
	}

	real := v.Clone(0)
	before := u.StatsSnapshot()
	primeSchedule(len(targets), maxTTL, rounds, func(ti int, ttl uint8, at time.Duration) {
		_ = real.Send(probeOf(real.LocalAddr(), ti, ttl))
		real.Sleep(gap)
	})
	st := u.StatsSnapshot().Sub(before)
	for name, n := range map[string]int64{
		"TimeExceededSent": st.TimeExceededSent, "RateLimitDropped": st.RateLimitDropped,
		"UnresponsiveDrops": st.UnresponsiveDrops, "ErrorsSent": st.ErrorsSent,
		"EchoRepliesSent": st.EchoRepliesSent, "TCPRstsSent": st.TCPRstsSent,
		"PortUnreachSent": st.PortUnreachSent, "LossDropped": st.LossDropped,
		"FilteredDrops": st.FilteredDrops,
	} {
		if n == 0 {
			t.Errorf("real sends counted no %s: the schedule misses a branch", name)
		}
	}

	// register returns ti's token on p, registering its flow on first
	// use; -1 when the flow cannot be registered.
	register := func(p *Vantage, toks []int, ti int, ttl uint8) int {
		if toks[ti] < 0 {
			if tok, err := p.PrimeFlow(probeOf(p.LocalAddr(), ti, ttl)); err == nil {
				toks[ti] = tok
			}
		}
		return toks[ti]
	}
	unregistered := func() []int {
		toks := make([]int, len(targets))
		for i := range toks {
			toks[i] = -1
		}
		return toks
	}

	perProbe := v.Clone(0)
	perProbe.BeginPrime()
	toks := unregistered()
	var sched []int // target index per schedule position
	var ttls []uint8
	primeSchedule(len(targets), maxTTL, rounds, func(ti int, ttl uint8, at time.Duration) {
		if at != time.Duration(len(sched))*gap {
			t.Fatalf("schedule position %d departs at %v, off the %v grid", len(sched), at, gap)
		}
		sched, ttls = append(sched, ti), append(ttls, ttl)
		if tok := register(perProbe, toks, ti, ttl); tok >= 0 {
			perProbe.PrimeIdx(tok, ttl, at)
		}
	})
	perProbe.EndPrime()
	if toks[skip] >= 0 {
		t.Fatal("the undecodable probe registered a flow")
	}

	runs := v.Clone(0)
	runs.BeginPrime()
	toks = unregistered()
	run := make([]int, 64)
	sizes := []int{1, 7, 64}
	for pos, si := 0, 0; pos < len(sched); si++ {
		n := min(sizes[si%len(sizes)], len(sched)-pos)
		for i := range n {
			run[i] = register(runs, toks, sched[pos+i], ttls[pos+i])
		}
		runs.PrimeRun(run[:n], ttls[pos:pos+n], time.Duration(pos)*gap, gap)
		pos += n
	}
	runs.EndPrime()

	blobReal := real.ExportSimState(nil)
	if !bytes.Equal(perProbe.ExportSimState(nil), blobReal) {
		t.Fatal("per-probe PrimeIdx replay and real sends leave different bucket state")
	}
	if !bytes.Equal(runs.ExportSimState(nil), blobReal) {
		t.Fatal("PrimeRun replay and real sends leave different bucket state")
	}
}

// TestSimStateLazyImport: an imported blob passes through an untouched
// vantage byte for byte, and a vantage that materializes some of the
// imported routers by routing traffic merges live bucket state with the
// still-pending records into the same export the original vantage
// produces.
func TestSimStateLazyImport(t *testing.T) {
	u := testUniverse(t)
	v := u.NewVantage(VantageSpec{Name: "prime", Kind: KindUniversity, ChainLen: 3})
	targets := primeTargets(u, 12)

	a := v.Clone(0)
	end := primeSchedule(len(targets), 8, 16, func(ti int, ttl uint8, at time.Duration) {
		_ = a.Send(buildEchoProbe(a.LocalAddr(), targets[ti], ttl))
		a.Sleep(150 * time.Microsecond)
	})
	blob := a.ExportSimState(nil)
	if n := binary.LittleEndian.Uint32(blob); n == 0 {
		t.Fatal("exporting vantage has no routers")
	}

	passthrough := v.Clone(end)
	if err := passthrough.ImportSimState(append([]byte(nil), blob...)); err != nil {
		t.Fatal(err)
	}
	if got := passthrough.ExportSimState(nil); !bytes.Equal(got, blob) {
		t.Fatal("import/export of an untouched vantage is not byte-identical")
	}

	merged := v.Clone(end)
	if err := merged.ImportSimState(append([]byte(nil), blob...)); err != nil {
		t.Fatal(err)
	}
	// Route the same follow-up probes on both vantages at the same
	// instants: merged materializes a subset of the imported routers and
	// must export their live buckets merged with the untouched pending
	// records — exactly a's state.
	for i := 0; i < 3; i++ {
		pkt := buildEchoProbe(v.LocalAddr(), targets[i], 3)
		_ = a.Send(pkt)
		a.Sleep(time.Millisecond)
		_ = merged.Send(pkt)
		merged.Sleep(time.Millisecond)
	}
	if got, want := merged.ExportSimState(nil), a.ExportSimState(nil); !bytes.Equal(got, want) {
		t.Fatal("merged export (live + pending) differs from the uninterrupted vantage")
	}

	// Routers born after an export — here on paths the import never saw —
	// join the sorted index on the next one. Each export must equal the
	// straightforward collect-and-sort of the live routers plus the
	// imported records no live router supersedes.
	imported := binary.LittleEndian.Uint32(blob)
	for i, dst := range primeTargets(u, 40)[12:] {
		_ = merged.Send(buildEchoProbe(v.LocalAddr(), dst, uint8(4+i%12)))
		merged.Sleep(time.Millisecond)
		if got, want := merged.ExportSimState([]byte("prefix")), referenceSimState(merged); !bytes.Equal(got[6:], want) {
			t.Fatal("export differs from the collect-and-sort reference")
		}
	}
	if n := binary.LittleEndian.Uint32(merged.ExportSimState(nil)); n <= imported {
		t.Fatalf("follow-up probes materialized no new router (%d records, %d imported)", n, imported)
	}
}

// referenceSimState is the export ExportSimState's index merge
// replaced: every live router and every unsuperseded imported record,
// collected and sorted by key.
func referenceSimState(v *Vantage) []byte {
	type rec struct {
		key    RouterKey
		tokens float64
		last   time.Duration
	}
	var recs []rec
	live := make(map[RouterKey]bool)
	for _, chunk := range v.rows {
		for _, r := range chunk {
			recs = append(recs, rec{r.key(), r.tokens, r.last})
			live[r.key()] = true
		}
	}
	for i := 0; i < len(v.simPending)/simStateEntrySize; i++ {
		k, tokens, last := simEntry(v.simPending, i)
		if !live[k] {
			recs = append(recs, rec{k, tokens, last})
		}
	}
	sort.Slice(recs, func(i, j int) bool { return simStateKeyCompare(recs[i].key, recs[j].key) < 0 })
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(recs)))
	for _, r := range recs {
		buf = binary.LittleEndian.AppendUint32(buf, r.key.ASN)
		buf = append(buf, r.key.Class)
		buf = binary.LittleEndian.AppendUint64(buf, r.key.K1)
		buf = binary.LittleEndian.AppendUint64(buf, r.key.K2)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.tokens))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.last))
	}
	return buf
}

// TestImportSimStateErrors: structurally invalid blobs are rejected
// before any state is retained.
func TestImportSimStateErrors(t *testing.T) {
	u := testUniverse(t)
	v := u.NewVantage(VantageSpec{Name: "prime", Kind: KindUniversity, ChainLen: 3})
	targets := primeTargets(u, 4)
	a := v.Clone(0)
	for i, dst := range targets {
		_ = a.Send(buildEchoProbe(a.LocalAddr(), dst, uint8(2+i%3)))
		a.Sleep(time.Millisecond)
	}
	blob := a.ExportSimState(nil)
	if n := binary.LittleEndian.Uint32(blob); n == 0 {
		t.Fatal("no routers to corrupt")
	}

	corrupt := func(mutate func(b []byte)) []byte {
		b := append([]byte(nil), blob...)
		mutate(b)
		return b
	}
	cases := map[string][]byte{
		"truncated header": {0x01},
		"length mismatch":  blob[:len(blob)-simStateEntrySize/2],
		"nan tokens": corrupt(func(b []byte) {
			binary.LittleEndian.PutUint64(b[4+21:], math.Float64bits(math.NaN()))
		}),
		"negative tokens": corrupt(func(b []byte) {
			binary.LittleEndian.PutUint64(b[4+21:], math.Float64bits(-1))
		}),
		"unknown AS": corrupt(func(b []byte) {
			binary.LittleEndian.PutUint32(b[4:], 0xfffffff0)
		}),
		"out of order": corrupt(func(b []byte) {
			first := append([]byte(nil), b[4:4+simStateEntrySize]...)
			copy(b[4:], b[4+simStateEntrySize:4+2*simStateEntrySize])
			copy(b[4+simStateEntrySize:], first)
		}),
		"duplicate router": corrupt(func(b []byte) {
			copy(b[4+simStateEntrySize:], b[4:4+simStateEntrySize])
		}),
	}
	for name, data := range cases {
		fresh := v.Clone(0)
		if err := fresh.ImportSimState(data); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
