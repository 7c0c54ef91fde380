// gencorpus writes the checked-in fuzz seed corpora for internal/wire,
// internal/probe, internal/core, internal/gen6prob and cmd/beholderd in
// Go's corpus file format.
package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"beholder/internal/core"
	"beholder/internal/gen6prob"
	"beholder/internal/netsim"
	"beholder/internal/probe"
	"beholder/internal/wire"
)

func write(dir, name string, lines ...string) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		panic(err)
	}
	out := "go test fuzz v1\n"
	for _, l := range lines {
		out += l + "\n"
	}
	if err := os.WriteFile(filepath.Join(dir, name), []byte(out), 0o644); err != nil {
		panic(err)
	}
}

func bs(b []byte) string  { return "[]byte(" + strconv.Quote(string(b)) + ")" }
func by(v uint8) string   { return "byte(" + strconv.QuoteRuneToASCII(rune(v)) + ")" }
func u32(v uint32) string { return "uint32(" + strconv.FormatUint(uint64(v), 10) + ")" }

// frozenConn is what a codec needs of a connection: a source address
// and a clock. The embedded nil Conn fills out the interface; the codec
// calls nothing of it.
type frozenConn struct {
	probe.Conn
	addr netip.Addr
	now  time.Duration
}

func (c *frozenConn) LocalAddr() netip.Addr { return c.addr }
func (c *frozenConn) Now() time.Duration    { return c.now }

func main() {
	src := netip.MustParseAddr("2001:db8::1")
	dst := netip.MustParseAddr("2001:db8::2")
	var buf [256]byte

	// wire: FuzzDecode — one well-formed packet per transport plus a
	// truncation.
	wd := "internal/wire/testdata/fuzz/FuzzDecode"
	names := map[uint8]string{wire.ProtoICMPv6: "icmp6", wire.ProtoUDP: "udp", wire.ProtoTCP: "tcp"}
	for proto, name := range names {
		hdr := wire.IPv6Header{HopLimit: 8, Src: src, Dst: dst}
		n := wire.BuildPacket(buf[:], &hdr, proto,
			&wire.UDPHeader{SrcPort: 4242, DstPort: 80},
			&wire.TCPHeader{SrcPort: 4242, DstPort: 80, Flags: wire.TCPSyn},
			&wire.ICMPv6Header{Type: wire.ICMPv6EchoRequest, ID: 4242, Seq: 80},
			[]byte("yarrp6-corpus"))
		write(wd, "seed-"+name, bs(buf[:n]))
		write(wd, "seed-"+name+"-truncated", bs(buf[:n/2]))
	}

	// wire: FuzzBuildDecodeRoundTrip — (protoSel, hopLimit, addrSeed,
	// payload).
	wr := "internal/wire/testdata/fuzz/FuzzBuildDecodeRoundTrip"
	write(wr, "seed-icmp6", by(0), by(8), bs([]byte{0x20, 0x01, 0x0d, 0xb8}), bs([]byte("payload")))
	write(wr, "seed-udp", by(1), by(1), bs([]byte{0xfe, 0x80, 9, 9}), bs(nil))
	write(wr, "seed-tcp", by(2), by(64), bs([]byte{0x26, 0x07}), bs([]byte{1, 2, 3, 4}))

	// probe: FuzzParseReply — a quoted Time Exceeded for a real probe,
	// a truncated quotation, and the bare probe.
	conn := &frozenConn{addr: netip.MustParseAddr("2001:db8:100::1")}
	codec := probe.NewCodec(conn, wire.ProtoICMPv6, 7)
	target := netip.MustParseAddr("2001:db8:200::2")
	pn := codec.BuildProbe(buf[:], target, 9)
	var errBuf [wire.MinMTU]byte
	router := netip.MustParseAddr("2001:db8:300::3")
	en := wire.BuildICMPv6Error(errBuf[:], wire.ICMPv6TimeExceeded, 0, router, conn.addr, buf[:pn], 60)
	pd := "internal/probe/testdata/fuzz/FuzzParseReply"
	write(pd, "seed-time-exceeded", bs(errBuf[:en]))
	write(pd, "seed-truncated-quote", bs(errBuf[:en-probe.PayloadLen]))
	write(pd, "seed-bare-probe", bs(buf[:pn]))

	// probe: FuzzProbeBuildEquivalence — (targetSeed, ttl, protoSel,
	// instance, elapsedUs). The dfff address folds to 0xffff, so its
	// checksum constant takes the 0 → 0xffff branch.
	pe := "internal/probe/testdata/fuzz/FuzzProbeBuildEquivalence"
	write(pe, "seed-icmp6", bs([]byte{0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 1}), by(1), by(0), by(7), u32(0))
	write(pe, "seed-udp", bs([]byte{0x20, 0x01, 0xff, 0xff}), by(16), by(1), by(0), u32(200_000))
	write(pe, "seed-tcp", bs([]byte{0x3f, 0xfe}), by(255), by(2), by(255), u32(63_000))
	write(pe, "seed-zero-sum", bs([]byte{0x20, 0x00, 0xdf, 0xff}), by(9), by(0), by(255), u32(1<<16+1))

	// probe: FuzzDecodeStore — the empty store, one trace that fill mode
	// carried past TTL 16 to its destination, and a path-less store with
	// destination-unreachable codes.
	ps := "internal/probe/testdata/fuzz/FuzzDecodeStore"
	write(ps, "seed-empty", bs(probe.NewStore(true).AppendBinary(nil)))
	filled := probe.NewStore(true)
	for ttl := uint8(1); ttl <= 19; ttl++ {
		hop := netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 3, 14: ttl, 15: 1})
		filled.Add(probe.Reply{Kind: probe.KindTimeExceeded, From: hop, Target: target, TTL: ttl, StateRecovered: true})
	}
	filled.Add(probe.Reply{Kind: probe.KindEchoReply, From: target, Target: target})
	write(ps, "seed-filled-trace", bs(filled.AppendBinary(nil)))
	unreach := probe.NewStore(false)
	for _, code := range []uint8{1, 1, 3, 4} {
		unreach.Add(probe.Reply{Kind: probe.KindDestUnreach, Code: code, From: router, Target: target})
	}
	unreach.Add(probe.Reply{Kind: probe.KindTimeExceeded, From: router, Target: target, TTL: 2})
	write(ps, "seed-dest-unreach", bs(unreach.AppendBinary(nil)))

	// core: FuzzCheckpointDecode — a real interrupted-campaign artifact,
	// a truncation, a CRC flip, a well-framed artifact whose first-seen
	// list is out of address order, an adaptive artifact cut mid-epoch
	// (so it embeds an inner campaign artifact), and the valid artifact
	// under the retired format's magic.
	art, adaptive, source := checkpointArtifacts()
	cd := "internal/core/testdata/fuzz/FuzzCheckpointDecode"
	write(cd, "seed-valid", bs(art))
	write(cd, "seed-truncated", bs(art[:len(art)*2/3]))
	flipped := append([]byte(nil), art...)
	flipped[len(flipped)/2] ^= 0x04
	write(cd, "seed-crc-flip", bs(flipped))
	write(cd, "seed-unsorted-seen", bs(unsortedSeen(art)))
	write(cd, "seed-adaptive", bs(adaptive))
	write(cd, "seed-retired-magic", bs(retired(art, "Y6CKPT04")))

	// gen6prob: FuzzRestoreState — the adaptive campaign's source state
	// as the interrupt left it (epoch 0 generated), a truncation of it,
	// a fresh source with alias nomination disabled, and the interrupted
	// state under the retired format's magic.
	gd := "internal/gen6prob/testdata/fuzz/FuzzRestoreState"
	write(gd, "seed-interrupted", bs(source))
	write(gd, "seed-truncated", bs(source[:len(source)/2]))
	fresh := gen6prob.New([]netip.Addr{src, dst, target}, gen6prob.Config{Key: 3, AliasMinHits: -1})
	write(gd, "seed-fresh", bs(fresh.AppendState(nil)))
	write(gd, "seed-retired-magic", bs(retired(source, "G6PB02")))

	// cmd/beholderd: FuzzSubmitTargets — /submit targets values: plain
	// and spaced lists, the empty list, null as the list and as an
	// element, a string that is no address, non-string elements, a
	// non-array value, escapes, zones and non-ASCII text.
	st := "cmd/beholderd/testdata/fuzz/FuzzSubmitTargets"
	for name, v := range map[string]string{
		"seed-plain":      `["2001:db8::1","2001:db8::2"]`,
		"seed-spaced":     " [ \"2001:db8::1\" ,\n\t\"::ffff:192.0.2.1\" ] ",
		"seed-empty":      `[]`,
		"seed-null":       `null`,
		"seed-null-elem":  `["2001:db8::1",null]`,
		"seed-bad":        `["2001:db8::1","nope"]`,
		"seed-bad-number": `["nope",7]`,
		"seed-nonstring":  `[true,{},[],1.5]`,
		"seed-string":     `"2001:db8::1"`,
		"seed-object":     `{"a":"2001:db8::1"}`,
		"seed-escapes":    `["2001:db8::\u0031","2001:db8::\/1","\ud800"]`,
		"seed-zones":      `["fe80::1%eth0","fe80::1%\"q\"","fe80::1%<&>"]`,
		"seed-non-ascii":  "[\"fe80::1%é\",\"é\",\"\xff\"]",
		"seed-ipv4":       `["192.0.2.1"]`,
	} {
		write(st, name, bs([]byte(v)))
	}

	fmt.Println("corpus written")
}

// retired returns a copy of blob with its magic overwritten by magic, a
// retired format's magic of the same length: a current body the decoder
// must refuse.
func retired(blob []byte, magic string) []byte {
	out := append([]byte(nil), blob...)
	copy(out, magic)
	return out
}

// unsortedSeen returns a copy of a campaign artifact with the first two
// entries of shard 0's first-seen list swapped and the section checksum
// recomputed: every frame is right, but the list is not in the address
// order the encoder writes.
func unsortedSeen(art []byte) []byte {
	le32 := func(b []byte) int { return int(binary.LittleEndian.Uint32(b)) }
	out := append([]byte(nil), art...)
	// The magic is the artifact's leading run of capitals and digits; the
	// sections behind it are [type u8][len u32][crc u32][payload], the
	// config section (type 1) first, shard 0's second.
	sect := bytes.IndexFunc(out, func(r rune) bool { return (r < 'A' || r > 'Z') && (r < '0' || r > '9') })
	sect += 9 + le32(out[sect+1:])
	p := out[sect+9 : sect+9+le32(out[sect+1:])]
	off := 4 + 1 + 8 + 3*8 + 6*8          // index, done, cursor, three instants, counters
	off += 8 * (int(probe.KindOther) + 1) // reply-kind tallies
	off += 4 + 72*le32(p[off:])           // progress samples
	pending := le32(p[off:])
	off += 4
	for ; pending > 0; pending-- {
		off += 8 + 4 + le32(p[off+8:])
	}
	if p[off] != 1 || le32(p[off+1:]) < 2 {
		panic("gencorpus: shard 0 has fewer than two first-seen entries")
	}
	a, b := p[off+5:off+29], p[off+29:off+53] // 16-byte address + instant each
	for i := range a {
		a[i], b[i] = b[i], a[i]
	}
	binary.LittleEndian.PutUint32(out[sect+5:], crc32.ChecksumIEEE(p))
	return out
}

// checkpointArtifacts interrupts a small deterministic netsim campaign,
// static and adaptive, and serializes each one's checkpoint, plus the
// adaptive run's target-source state as it stopped.
func checkpointArtifacts() (static, adaptive, source []byte) {
	cfg := netsim.TestConfig(77)
	cfg.AggressivePercent = 0
	u := netsim.NewUniverse(cfg)
	v := u.NewVantage(netsim.VantageSpec{Name: "US-EDU-1", Kind: netsim.KindUniversity, ChainLen: 4})
	clone := func(_ int, start time.Duration) probe.Conn { return v.Clone(start) }

	rng := rand.New(rand.NewSource(77))
	var targets []netip.Addr
	kinds := []netsim.ASKind{netsim.KindHosting, netsim.KindEyeballISP, netsim.KindEnterprise}
	for len(targets) < 13 {
		as := u.RandomAS(rng, kinds[len(targets)%len(kinds)])
		lan, ok := u.RandomLAN(rng, as)
		if !ok {
			continue
		}
		targets = append(targets, u.GatewayAddr(lan, as))
	}

	ccfg := core.CampaignConfig{
		Config:      core.Config{Targets: targets, PPS: 500, MaxTTL: 12, Key: 11, Fill: true},
		Shards:      2,
		RecordPaths: true,
		InterruptAt: 120 * time.Millisecond,
	}
	camp := core.NewCampaign(ccfg, clone)
	if _, _, err := camp.Run(); !errors.Is(err, core.ErrInterrupted) {
		panic(fmt.Sprintf("gencorpus checkpoint campaign: %v", err))
	}
	static, err := camp.Checkpoint()
	if err != nil {
		panic(err)
	}

	// The same tuning, the targets now the generator's seed observations.
	ccfg.Targets = nil
	src := gen6prob.New(targets, gen6prob.Config{Key: 11})
	ad := core.NewAdaptive(core.AdaptiveConfig{
		CampaignConfig: ccfg,
		Source:         src,
		EpochTargets:   8,
		MaxEpochs:      3,
	}, clone)
	if _, _, err := ad.Run(); !errors.Is(err, core.ErrInterrupted) {
		panic(fmt.Sprintf("gencorpus adaptive campaign: %v", err))
	}
	if adaptive, err = ad.Checkpoint(); err != nil {
		panic(err)
	}
	return static, adaptive, src.AppendState(nil)
}
