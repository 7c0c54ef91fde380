package wire

import (
	"bytes"
	"errors"
	"net/netip"
	"testing"
	"testing/quick"
)

var (
	probeSrc = netip.MustParseAddr("2001:db8:ffff::1")
	probeDst = netip.MustParseAddr("2001:db8:1:2::1")
)

func TestIPv6HeaderRoundTrip(t *testing.T) {
	h := IPv6Header{
		TrafficClass:  0xa5,
		FlowLabel:     0xbeef7,
		PayloadLength: 52,
		NextHeader:    ProtoICMPv6,
		HopLimit:      16,
		Src:           probeSrc,
		Dst:           probeDst,
	}
	var b [IPv6HeaderLen]byte
	if n := h.Marshal(b[:]); n != IPv6HeaderLen {
		t.Fatalf("Marshal returned %d", n)
	}
	var got IPv6Header
	if err := got.Unmarshal(b[:]); err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("round trip: got %+v want %+v", got, h)
	}
	if b[0]>>4 != 6 {
		t.Errorf("version nibble = %d", b[0]>>4)
	}
}

func TestIPv6HeaderRoundTripQuick(t *testing.T) {
	f := func(tc uint8, fl uint32, plen uint16, nh, hl uint8, srcLo, dstLo uint64) bool {
		h := IPv6Header{
			TrafficClass:  tc,
			FlowLabel:     fl & 0xfffff,
			PayloadLength: plen,
			NextHeader:    nh,
			HopLimit:      hl,
			Src:           addrFrom(0x2001_0db8_0000_0000, srcLo),
			Dst:           addrFrom(0x2001_0db8_0000_0001, dstLo),
		}
		var b [IPv6HeaderLen]byte
		h.Marshal(b[:])
		var got IPv6Header
		if err := got.Unmarshal(b[:]); err != nil {
			return false
		}
		return got == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func addrFrom(hi, lo uint64) netip.Addr {
	var b [16]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(hi >> (56 - 8*i))
		b[8+i] = byte(lo >> (56 - 8*i))
	}
	return netip.AddrFrom16(b)
}

func TestIPv6HeaderUnmarshalErrors(t *testing.T) {
	var h IPv6Header
	if err := h.Unmarshal(make([]byte, 10)); err == nil {
		t.Error("short buffer accepted")
	}
	b := make([]byte, IPv6HeaderLen)
	b[0] = 4 << 4
	if err := h.Unmarshal(b); err == nil {
		t.Error("IPv4 version accepted")
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 style check: sum of complement over data with stored
	// checksum must fold to zero.
	payload := []byte{0x80, 0x00, 0x00, 0x00, 0x12, 0x34, 0x00, 0x01, 0xde, 0xad}
	ck := Checksum(payload, probeSrc, probeDst, ProtoICMPv6)
	payload[2] = byte(ck >> 8)
	payload[3] = byte(ck)
	var c Checksummer
	c.AddPseudoHeader(probeSrc, probeDst, len(payload), ProtoICMPv6)
	c.Add(payload)
	if c.Sum() != 0 {
		t.Errorf("verification sum = %#x want 0", c.Sum())
	}
}

func TestChecksummerOddChunks(t *testing.T) {
	// Adding data in arbitrary chunkings must give identical sums.
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	var whole Checksummer
	whole.Add(data)
	for split := 1; split < len(data); split++ {
		var c Checksummer
		c.Add(data[:split])
		c.Add(data[split:])
		if c.Sum() != whole.Sum() {
			t.Errorf("split %d: sum %#x want %#x", split, c.Sum(), whole.Sum())
		}
	}
}

func TestChecksumChunkingQuick(t *testing.T) {
	f := func(data []byte, splitRaw uint8) bool {
		if len(data) == 0 {
			return true
		}
		split := int(splitRaw) % len(data)
		var a, b Checksummer
		a.Add(data)
		b.Add(data[:split])
		b.Add(data[split:])
		return a.Sum() == b.Sum()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBuildPacketUDPAndDecode(t *testing.T) {
	payload := []byte("yarrp6 state block")
	buf := make([]byte, MinMTU)
	hdr := IPv6Header{HopLimit: 7, Src: probeSrc, Dst: probeDst}
	udp := UDPHeader{SrcPort: 4660, DstPort: 80}
	n := BuildPacket(buf, &hdr, ProtoUDP, &udp, nil, nil, payload)
	if n != IPv6HeaderLen+UDPHeaderLen+len(payload) {
		t.Fatalf("length %d", n)
	}
	var d Decoded
	if err := d.Decode(buf[:n]); err != nil {
		t.Fatal(err)
	}
	if d.Proto != ProtoUDP || d.UDP.SrcPort != 4660 || d.UDP.DstPort != 80 {
		t.Errorf("decode: %+v", d.UDP)
	}
	if !bytes.Equal(d.Payload, payload) {
		t.Errorf("payload: %q", d.Payload)
	}
	if !d.VerifyTransportChecksum(buf[:n]) {
		t.Error("checksum did not verify")
	}
	// Corrupt a payload byte: checksum must fail.
	buf[n-1] ^= 0xff
	if d.VerifyTransportChecksum(buf[:n]) {
		t.Error("corrupted packet verified")
	}
}

func TestBuildPacketTCPAndDecode(t *testing.T) {
	buf := make([]byte, MinMTU)
	hdr := IPv6Header{HopLimit: 3, Src: probeSrc, Dst: probeDst}
	tcp := TCPHeader{SrcPort: 1234, DstPort: 443, Seq: 0xdead, Flags: TCPSyn, Window: 65535}
	n := BuildPacket(buf, &hdr, ProtoTCP, nil, &tcp, nil, []byte{9, 9})
	var d Decoded
	if err := d.Decode(buf[:n]); err != nil {
		t.Fatal(err)
	}
	if d.Proto != ProtoTCP || d.TCP.Flags != TCPSyn || d.TCP.Seq != 0xdead {
		t.Errorf("decode: %+v", d.TCP)
	}
	if !d.VerifyTransportChecksum(buf[:n]) {
		t.Error("checksum did not verify")
	}
}

func TestBuildPacketICMPv6AndDecode(t *testing.T) {
	buf := make([]byte, MinMTU)
	hdr := IPv6Header{HopLimit: 64, Src: probeSrc, Dst: probeDst}
	icmp := ICMPv6Header{Type: ICMPv6EchoRequest, ID: 0xabcd, Seq: 80}
	n := BuildPacket(buf, &hdr, ProtoICMPv6, nil, nil, &icmp, []byte("ping"))
	var d Decoded
	if err := d.Decode(buf[:n]); err != nil {
		t.Fatal(err)
	}
	if d.Proto != ProtoICMPv6 || d.ICMPv6.Type != ICMPv6EchoRequest || d.ICMPv6.ID != 0xabcd {
		t.Errorf("decode: %+v", d.ICMPv6)
	}
	if !d.VerifyTransportChecksum(buf[:n]) {
		t.Error("checksum did not verify")
	}
}

func TestICMPv6ErrorQuotesFullPacket(t *testing.T) {
	// Build a small probe and wrap it in a Time Exceeded: the quotation
	// must contain the complete original packet (ICMPv6 complete-quotation
	// property the paper relies on, unlike IPv4's 28 bytes).
	probe := make([]byte, MinMTU)
	hdr := IPv6Header{HopLimit: 1, Src: probeSrc, Dst: probeDst}
	udp := UDPHeader{SrcPort: 7, DstPort: 80}
	pn := BuildPacket(probe, &hdr, ProtoUDP, &udp, nil, nil, []byte("0123456789ab"))

	rtr := netip.MustParseAddr("2001:db8:42::1")
	errBuf := make([]byte, MinMTU)
	en := BuildICMPv6Error(errBuf, ICMPv6TimeExceeded, 0, rtr, probeSrc, probe[:pn], 64)

	var d Decoded
	if err := d.Decode(errBuf[:en]); err != nil {
		t.Fatal(err)
	}
	if d.ICMPv6.Type != ICMPv6TimeExceeded {
		t.Fatalf("type %d", d.ICMPv6.Type)
	}
	if !bytes.Equal(d.Payload, probe[:pn]) {
		t.Error("quotation is not the complete invoking packet")
	}
	// The quoted packet decodes in turn.
	var q Decoded
	if err := q.Decode(d.Payload); err != nil {
		t.Fatal(err)
	}
	if q.IPv6.Dst != probeDst || q.UDP.DstPort != 80 {
		t.Errorf("inner decode: %+v %+v", q.IPv6, q.UDP)
	}
	if !d.VerifyTransportChecksum(errBuf[:en]) {
		t.Error("outer checksum did not verify")
	}
}

func TestICMPv6ErrorTruncatesAtMinMTU(t *testing.T) {
	big := make([]byte, 1400)
	hdr := IPv6Header{HopLimit: 1, Src: probeSrc, Dst: probeDst}
	udp := UDPHeader{SrcPort: 7, DstPort: 80}
	BuildPacket(big, &hdr, ProtoUDP, &udp, nil, nil, make([]byte, 1400-IPv6HeaderLen-UDPHeaderLen))
	errBuf := make([]byte, MinMTU)
	rtr := netip.MustParseAddr("2001:db8:42::1")
	en := BuildICMPv6Error(errBuf, ICMPv6TimeExceeded, 0, rtr, probeSrc, big, 64)
	if en != MinMTU {
		t.Errorf("error packet length %d want %d", en, MinMTU)
	}
}

func TestBuildEchoReplyMirrors(t *testing.T) {
	req := ICMPv6Header{Type: ICMPv6EchoRequest, ID: 42, Seq: 80}
	buf := make([]byte, MinMTU)
	n := BuildEchoReply(buf, probeDst, probeSrc, &req, []byte("data"), 60)
	var d Decoded
	if err := d.Decode(buf[:n]); err != nil {
		t.Fatal(err)
	}
	if d.ICMPv6.Type != ICMPv6EchoReply || d.ICMPv6.ID != 42 || d.ICMPv6.Seq != 80 {
		t.Errorf("reply header: %+v", d.ICMPv6)
	}
	if string(d.Payload) != "data" {
		t.Errorf("payload %q", d.Payload)
	}
}

func TestBuildTCPRst(t *testing.T) {
	syn := TCPHeader{SrcPort: 5555, DstPort: 80, Seq: 100, Flags: TCPSyn}
	buf := make([]byte, MinMTU)
	n := BuildTCPRst(buf, probeDst, probeSrc, &syn, 61)
	var d Decoded
	if err := d.Decode(buf[:n]); err != nil {
		t.Fatal(err)
	}
	if d.TCP.Flags != TCPRst|TCPAck || d.TCP.Ack != 101 || d.TCP.SrcPort != 80 || d.TCP.DstPort != 5555 {
		t.Errorf("rst: %+v", d.TCP)
	}
}

func TestDecodeTruncatedTransport(t *testing.T) {
	buf := make([]byte, MinMTU)
	hdr := IPv6Header{HopLimit: 7, Src: probeSrc, Dst: probeDst}
	udp := UDPHeader{SrcPort: 1, DstPort: 2}
	n := BuildPacket(buf, &hdr, ProtoUDP, &udp, nil, nil, nil)
	var d Decoded
	// Chop mid-UDP-header but keep the IPv6 header intact: PayloadLength
	// now exceeds available bytes.
	if err := d.Decode(buf[:n-4]); err == nil {
		t.Error("truncated transport accepted")
	}
}

// TestDecodeFailuresAllocateNothing: every way a packet can be short or
// not IPv6 fails with an error wrapping the matching sentinel, and
// without allocating — a prober meets such packets at line rate.
func TestDecodeFailuresAllocateNothing(t *testing.T) {
	buf := make([]byte, MinMTU)
	hdr := IPv6Header{HopLimit: 7, Src: probeSrc, Dst: probeDst}
	udp := UDPHeader{SrcPort: 1, DstPort: 2}
	n := BuildPacket(buf, &hdr, ProtoUDP, &udp, nil, nil, []byte("payload"))
	// shortTransport declares (and carries) a transport shorter than
	// proto's header.
	shortTransport := func(proto uint8) []byte {
		b := append([]byte(nil), buf[:IPv6HeaderLen+4]...)
		b[4], b[5], b[6] = 0, 4, proto
		return b
	}
	badVersion := append([]byte(nil), buf[:n]...)
	badVersion[0] = 4 << 4
	cases := map[string]struct {
		pkt  []byte
		want error
	}{
		"short IPv6 header": {buf[:IPv6HeaderLen-1], ErrTruncated},
		"short payload":     {buf[:n-1], ErrTruncated},
		"short UDP":         {shortTransport(ProtoUDP), ErrTruncated},
		"short TCP":         {shortTransport(ProtoTCP), ErrTruncated},
		"short ICMPv6":      {shortTransport(ProtoICMPv6), ErrTruncated},
		"IPv4 version":      {badVersion, ErrBadVersion},
	}
	var d Decoded
	for name, c := range cases {
		if err := d.Decode(c.pkt); !errors.Is(err, c.want) {
			t.Errorf("%s: got %v, want %v", name, err, c.want)
		}
		if allocs := testing.AllocsPerRun(10, func() { _ = d.Decode(c.pkt) }); allocs != 0 {
			t.Errorf("%s: failed decode allocates %.0f times, want 0", name, allocs)
		}
	}
}

func TestDecodeUnknownNextHeader(t *testing.T) {
	buf := make([]byte, IPv6HeaderLen+4)
	hdr := IPv6Header{NextHeader: 0x3b /* no next header */, PayloadLength: 4, Src: probeSrc, Dst: probeDst}
	hdr.Marshal(buf)
	copy(buf[IPv6HeaderLen:], []byte{1, 2, 3, 4})
	var d Decoded
	if err := d.Decode(buf); err != nil {
		t.Fatal(err)
	}
	if d.Proto != 0 || len(d.Payload) != 4 {
		t.Errorf("unknown proto decode: proto=%d payload=%d", d.Proto, len(d.Payload))
	}
}

func TestAddrChecksumDetectsRewrite(t *testing.T) {
	a := probeDst
	b := netip.MustParseAddr("2001:db8:1:2::2")
	if AddrChecksum(a) == AddrChecksum(b) {
		t.Skip("rare checksum collision between chosen addresses")
	}
	if AddrChecksum(a) != AddrChecksum(a) {
		t.Error("checksum not deterministic")
	}
}

func BenchmarkBuildProbeICMPv6(b *testing.B) {
	buf := make([]byte, 128)
	payload := make([]byte, 12)
	for i := 0; i < b.N; i++ {
		hdr := IPv6Header{HopLimit: 16, Src: probeSrc, Dst: probeDst}
		icmp := ICMPv6Header{Type: ICMPv6EchoRequest, ID: 0xabcd, Seq: 80}
		BuildPacket(buf, &hdr, ProtoICMPv6, nil, nil, &icmp, payload)
	}
}

func BenchmarkDecode(b *testing.B) {
	buf := make([]byte, 128)
	hdr := IPv6Header{HopLimit: 16, Src: probeSrc, Dst: probeDst}
	icmp := ICMPv6Header{Type: ICMPv6EchoRequest, ID: 0xabcd, Seq: 80}
	n := BuildPacket(buf, &hdr, ProtoICMPv6, nil, nil, &icmp, make([]byte, 12))
	var d Decoded
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Decode(buf[:n]); err != nil {
			b.Fatal(err)
		}
	}
}
