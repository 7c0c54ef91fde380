package core

import (
	"encoding/binary"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"beholder/internal/ipv6"
	"beholder/internal/netsim"
	"beholder/internal/probe"
	"beholder/internal/wire"
)

// The simulator's vantage is a whole connection: the compiler, not Run,
// refuses a connection short of any part of the contract.
var _ probe.Conn = (*netsim.Vantage)(nil)

func testVantage(t testing.TB, seed int64) (*netsim.Universe, *netsim.Vantage) {
	t.Helper()
	u := netsim.NewUniverse(netsim.TestConfig(seed))
	v := u.NewVantage(netsim.VantageSpec{Name: "US-EDU-1", Kind: netsim.KindUniversity, ChainLen: 4})
	return u, v
}

// gatewayTargets samples n reachable LAN gateways.
func gatewayTargets(u *netsim.Universe, n int, seed int64) []netip.Addr {
	rng := rand.New(rand.NewSource(seed))
	var out []netip.Addr
	kinds := []netsim.ASKind{netsim.KindHosting, netsim.KindEyeballISP, netsim.KindEnterprise}
	for len(out) < n {
		as := u.RandomAS(rng, kinds[len(out)%len(kinds)])
		lan, ok := u.RandomLAN(rng, as)
		if !ok {
			continue
		}
		out = append(out, u.GatewayAddr(lan, as))
	}
	return out
}

func TestProbeChecksumConstantPerTarget(t *testing.T) {
	// The load-balancing invariant of Figure 4: for one target, probes at
	// every TTL carry the identical transport checksum (the fudge absorbs
	// TTL and timestamp variation), and that checksum verifies.
	_, v := testVantage(t, 1)
	for _, proto := range []uint8{wire.ProtoICMPv6, wire.ProtoUDP, wire.ProtoTCP} {
		y := New(v, Config{Targets: []netip.Addr{ipv6.MustAddr("2400:5::1")}, Proto: proto, PPS: 100})
		if err := y.initCodec(); err != nil {
			t.Fatal(err)
		}
		target := ipv6.MustAddr("2400:5:6:7::1")
		var first uint16
		for ttl := uint8(1); ttl <= 16; ttl++ {
			v.Sleep(3 * time.Millisecond) // timestamps differ probe to probe
			buf := make([]byte, 128)
			n := y.codec.BuildProbe(buf, target, ttl)
			var d wire.Decoded
			if err := d.Decode(buf[:n]); err != nil {
				t.Fatal(err)
			}
			if !d.VerifyTransportChecksum(buf[:n]) {
				t.Fatalf("proto %d ttl %d: checksum does not verify", proto, ttl)
			}
			var ck uint16
			switch proto {
			case wire.ProtoUDP:
				ck = d.UDP.Checksum
			case wire.ProtoTCP:
				ck = d.TCP.Checksum
			default:
				ck = d.ICMPv6.Checksum
			}
			if ttl == 1 {
				first = ck
			} else if ck != first {
				t.Fatalf("proto %d: checksum varies with TTL: %#x vs %#x", proto, ck, first)
			}
			if d.IPv6.HopLimit != ttl {
				t.Fatalf("hop limit %d want %d", d.IPv6.HopLimit, ttl)
			}
			// Payload layout: magic, instance, TTL.
			if binary.BigEndian.Uint32(d.Payload[0:4]) != Magic || d.Payload[5] != ttl {
				t.Fatalf("payload state wrong: % x", d.Payload)
			}
		}
	}
}

func TestProbeChecksumConstantQuick(t *testing.T) {
	_, v := testVantage(t, 2)
	y := New(v, Config{Targets: []netip.Addr{ipv6.MustAddr("2400:5::1")}})
	if err := y.initCodec(); err != nil {
		t.Fatal(err)
	}
	f := func(hi, lo uint64, ttlRaw uint8, dt uint16) bool {
		target := ipv6.U128{Hi: 0x2400_0000_0000_0000 | hi>>8, Lo: lo}.Addr()
		ttl := ttlRaw%32 + 1
		v.Sleep(time.Duration(dt) * time.Microsecond)
		buf := make([]byte, 128)
		n := y.codec.BuildProbe(buf, target, ttl)
		var d wire.Decoded
		if d.Decode(buf[:n]) != nil {
			return false
		}
		want := wire.AddrChecksum(target)
		if want == 0 {
			want = 0xffff
		}
		return d.VerifyTransportChecksum(buf[:n]) && d.ICMPv6.Checksum == want && d.ICMPv6.ID == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCampaignDiscoversTopology(t *testing.T) {
	u, v := testVantage(t, 3)
	targets := gatewayTargets(u, 60, 3)
	store := probe.NewStore(true)
	y := New(v, Config{Targets: targets, PPS: 200, MaxTTL: 16, Key: 7})
	stats, err := y.Run(store)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ProbesSent != int64(len(targets))*16 {
		t.Errorf("probes sent %d want %d", stats.ProbesSent, len(targets)*16)
	}
	if store.NumInterfaces() < 10 {
		t.Errorf("interfaces discovered %d, want >= 10", store.NumInterfaces())
	}
	if store.TimeExceeded == 0 {
		t.Error("no time exceeded responses")
	}
	// Per-trace hop sequences must be plausible paths: TTLs within range,
	// addresses valid.
	checked := 0
	for _, tr := range store.Traces() {
		store.ForEachHop(tr, func(ttl uint8, id uint32) {
			if ttl < 1 || ttl > 16 {
				t.Fatalf("hop TTL %d out of range", ttl)
			}
			if a := store.AddrTable().Addr(id); !a.Is6() {
				t.Fatalf("bad hop addr %s", a)
			}
			checked++
		})
	}
	if checked == 0 {
		t.Error("no hops recorded")
	}
	_ = u
}

func TestCampaignStateRecovery(t *testing.T) {
	// RTTs must be recoverable from the in-packet timestamp: nonzero and
	// bounded by campaign duration.
	u, v := testVantage(t, 4)
	targets := gatewayTargets(u, 30, 4)
	store := probe.NewStore(true)
	y := New(v, Config{Targets: targets, PPS: 500, MaxTTL: 12, Key: 9})
	if _, err := y.Run(store); err != nil {
		t.Fatal(err)
	}
	if store.TimeExceeded > 0 && store.Unparseable > store.TimeExceeded/5 {
		t.Errorf("unparseable %d of %d TE (truncation quirk should be rare)",
			store.Unparseable, store.TimeExceeded)
	}
}

func TestFillModeExtendsPaths(t *testing.T) {
	u, v := testVantage(t, 5)
	targets := gatewayTargets(u, 40, 5)

	store := probe.NewStore(true)
	y := New(v, Config{Targets: targets, PPS: 500, MaxTTL: 8, Key: 3, Fill: true})
	stats, err := y.Run(store)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Fills == 0 {
		t.Fatal("fill mode sent no fills (paths longer than 8 exist)")
	}
	maxHop := 0
	for _, tr := range store.Traces() {
		if l := tr.PathLength(); l > maxHop {
			maxHop = l
		}
	}
	if maxHop <= 8 {
		t.Errorf("fill mode never discovered past MaxTTL: deepest hop %d", maxHop)
	}
	_ = u
}

func TestSameKeySameOrderDifferentKeysDiffer(t *testing.T) {
	u, _ := testVantage(t, 6)
	targets := gatewayTargets(u, 50, 6)

	run := func(key uint64) (int, int64) {
		u.ResetState()
		v2 := u.NewVantage(netsim.VantageSpec{Name: "US-EDU-1", Kind: netsim.KindUniversity, ChainLen: 4})
		store := probe.NewStore(false)
		y := New(v2, Config{Targets: targets, PPS: 1000, MaxTTL: 8, Key: key})
		stats, err := y.Run(store)
		if err != nil {
			t.Fatal(err)
		}
		return store.NumInterfaces(), stats.ProbesSent
	}
	ifA, sentA := run(1)
	ifB, sentB := run(1)
	if ifA != ifB || sentA != sentB {
		t.Errorf("same key diverged: (%d,%d) vs (%d,%d)", ifA, sentA, ifB, sentB)
	}
}

func TestTransportsAllWork(t *testing.T) {
	u, _ := testVantage(t, 7)
	targets := gatewayTargets(u, 40, 7)
	results := map[uint8]int{}
	for _, proto := range []uint8{wire.ProtoICMPv6, wire.ProtoUDP, wire.ProtoTCP} {
		u.ResetState()
		v2 := u.NewVantage(netsim.VantageSpec{Name: "US-EDU-1", Kind: netsim.KindUniversity, ChainLen: 4})
		store := probe.NewStore(false)
		y := New(v2, Config{Targets: targets, PPS: 200, MaxTTL: 16, Key: 5, Proto: proto})
		if _, err := y.Run(store); err != nil {
			t.Fatal(err)
		}
		results[proto] = store.NumInterfaces()
		if store.NumInterfaces() == 0 {
			t.Errorf("proto %d discovered nothing", proto)
		}
	}
}

func TestForeignRepliesIgnored(t *testing.T) {
	// Replies not matching magic/instance must not pollute results.
	u, v := testVantage(t, 8)
	targets := gatewayTargets(u, 10, 8)
	store := probe.NewStore(true)
	y := New(v, Config{Targets: targets, PPS: 1000, MaxTTL: 4, Key: 1, Instance: 9})
	// Inject a forged TE quoting a probe from a different instance.
	forged := make([]byte, 128)
	hdr := wire.IPv6Header{HopLimit: 1, Src: v.LocalAddr(), Dst: targets[0]}
	var pl [PayloadLen]byte
	binary.BigEndian.PutUint32(pl[0:4], Magic)
	pl[4] = 3 // wrong instance
	icmp := wire.ICMPv6Header{Type: wire.ICMPv6EchoRequest, ID: 1, Seq: 80}
	n := wire.BuildPacket(forged, &hdr, wire.ProtoICMPv6, nil, nil, &icmp, pl[:])
	errPkt := make([]byte, wire.MinMTU)
	en := wire.BuildICMPv6Error(errPkt, wire.ICMPv6TimeExceeded, 0, ipv6.MustAddr("2400:99::1"), v.LocalAddr(), forged[:n], 64)
	// Run the campaign, then hand the forged packet to the reply handler.
	if _, err := y.Run(store); err != nil {
		t.Fatal(err)
	}
	before := store.NumInterfaces()
	y.startFold(store)
	y.handleReply(errPkt[:en])
	y.stopFold()
	if y.codec.NotMine == 0 {
		t.Error("forged reply not flagged NotMine")
	}
	if tr := store.Trace(targets[0]); tr != nil {
		store.ForEachHop(tr, func(_ uint8, id uint32) {
			if store.AddrTable().Addr(id) == ipv6.MustAddr("2400:99::1") {
				t.Error("forged hop entered the trace store")
			}
		})
	}
	_ = before
	_ = u
}

// TestStatsCounterList: Stats.counters, which add, the checkpoint codec
// and the telemetry flush walk, lists every int64 counter field of Stats
// exactly once, in declaration order, under distinct telemetry names —
// a counter added to the struct but not to the list fails here.
func TestStatsCounterList(t *testing.T) {
	var s Stats
	cs := s.counters()
	rv := reflect.ValueOf(&s).Elem()
	names := make(map[string]bool)
	i := 0
	for f := range rv.NumField() {
		if rv.Field(f).Type() != reflect.TypeFor[int64]() {
			continue
		}
		name := rv.Type().Field(f).Name
		if i >= len(cs) || cs[i].n != rv.Field(f).Addr().Interface().(*int64) {
			t.Fatalf("counter %d is not Stats.%s", i, name)
		}
		if cs[i].name == "" || names[cs[i].name] {
			t.Fatalf("Stats.%s has an empty or repeated name %q", name, cs[i].name)
		}
		names[cs[i].name] = true
		i++
	}
	if i != len(cs) {
		t.Fatalf("the list has %d counters, Stats %d", len(cs), i)
	}
}

func TestConfigValidation(t *testing.T) {
	_, v := testVantage(t, 10)
	if _, err := New(v, Config{}).Run(probe.NewStore(false)); err == nil {
		t.Error("empty targets accepted")
	}
	badProto := Config{Targets: []netip.Addr{ipv6.MustAddr("2400::1")}, Proto: 99}
	if _, err := New(v, badProto).Run(probe.NewStore(false)); err == nil {
		t.Error("unknown transport accepted")
	}
	// 16 slots a 1e18 ns apart overflow the virtual clock.
	slow := Config{Targets: []netip.Addr{ipv6.MustAddr("2400::1")}, PPS: 1e-9}
	if err := slow.Validate(); err == nil {
		t.Error("a schedule past the virtual clock accepted")
	}
}

// TestSendBuffersBoundedByWindow: a batch larger than the window sizes
// the send buffers by the window.
func TestSendBuffersBoundedByWindow(t *testing.T) {
	u, v := testVantage(t, 12)
	y := New(v, Config{Targets: gatewayTargets(u, 20, 12), MaxTTL: 8, Batch: 1 << 20})
	if _, err := y.Run(probe.NewStore(false)); err != nil {
		t.Fatal(err)
	}
	if window := 20 * 8; cap(y.ring) > window*probeStride {
		t.Fatalf("send ring holds %d bytes for a %d-probe window", cap(y.ring), window)
	}
}

func BenchmarkBuildProbe(b *testing.B) {
	_, v := testVantage(b, 11)
	y := New(v, Config{Targets: []netip.Addr{ipv6.MustAddr("2400:5::1")}})
	if err := y.initCodec(); err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 128)
	target := ipv6.MustAddr("2400:5:6:7::1")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		y.codec.BuildProbe(buf, target, uint8(i%16+1))
	}
}
