package probe

import (
	"encoding/binary"
	"net/netip"
	"time"

	"beholder/internal/wire"
)

// Magic authenticates probe payloads emitted by this module ("yp6\x01").
const Magic uint32 = 0x79703601

// PayloadLen is the fixed probe payload size (Figure 4 of the paper):
// 4B magic, 1B instance, 1B originating TTL, 4B elapsed microseconds,
// 2B checksum fudge.
const PayloadLen = 12

// Codec builds probes and recovers probe state from replies. Yarrp6 and
// the stateful baseline probers share it: all emit the same wire format,
// with per-target-constant transport checksums (Paris semantics — real
// routers hash the ICMPv6 checksum for ECMP) and the target-address
// checksum in the source port / ICMPv6 identifier to detect in-path
// rewrites.
type Codec struct {
	conn     Conn
	proto    uint8
	instance uint8
	epoch    time.Duration

	dec   wire.Decoded
	inner wire.Decoded

	// Constant packet image (see BuildProbeAt): the codec's probe with
	// every per-target and per-probe byte zeroed, serialized once. base
	// is the folded ones'-complement sum of its pseudo-header and
	// segment; sumOff and ckOff locate the two 16-bit fields that carry
	// the per-target checksum constant.
	img        [imgMax]byte
	imgLen     int
	base       uint32
	sumOff     int
	ckOff      int
	payloadOff int

	// NotMine counts replies that failed the magic/instance/identifier
	// authentication.
	NotMine int64
}

// imgMax bounds the packet image; the module's own probes are 60-72
// bytes (40 header + 8-20 transport + 12 payload).
const imgMax = 80

// SetProbeCache does nothing: probes are built arithmetically from the
// codec's constant image (see BuildProbeAt), at one cost for every
// target, so there is no cache to size. Kept because the benchmark in
// bench/ calls it; see ROADMAP.
func (c *Codec) SetProbeCache(entries int) {}

// NewCodec creates a codec for the given transport, anchored at the
// connection's current time.
func NewCodec(conn Conn, proto, instance uint8) *Codec {
	c := &Codec{conn: conn, proto: proto, instance: instance, epoch: conn.Now()}
	t := wire.IPv6HeaderLen
	switch proto {
	case wire.ProtoUDP:
		c.sumOff, c.ckOff, c.payloadOff = t, t+6, t+wire.UDPHeaderLen
	case wire.ProtoTCP:
		c.sumOff, c.ckOff, c.payloadOff = t, t+16, t+wire.TCPHeaderLen
	default:
		c.sumOff, c.ckOff, c.payloadOff = t+4, t+2, t+wire.ICMPv6HeaderLen
	}

	// The image is the probe toward the unspecified address at TTL zero:
	// what remains constant once destination, per-target checksum
	// constant, hop limit, instance, TTL, elapsed time and fudge are taken
	// out. BuildPacket installs a true checksum; it is cleared, and base
	// sums what is left.
	var payload [PayloadLen]byte
	binary.BigEndian.PutUint32(payload[0:4], Magic)
	src, dst := conn.LocalAddr(), netip.IPv6Unspecified()
	c.imgLen = c.marshal(c.img[:], src, dst, 0, 0, payload[:])
	c.img[c.ckOff], c.img[c.ckOff+1] = 0, 0
	var cs wire.Checksummer
	cs.AddPseudoHeader(src, dst, c.imgLen-wire.IPv6HeaderLen, proto)
	cs.Add(c.img[wire.IPv6HeaderLen:c.imgLen])
	c.base = uint32(cs.RawSum())
	return c
}

// marshal serializes the codec's probe layout: the IPv6 header and the
// transport header carrying sum in its source port (UDP, TCP) or
// identifier (ICMPv6), with a true transport checksum.
func (c *Codec) marshal(buf []byte, src, dst netip.Addr, ttl uint8, sum uint16, payload []byte) int {
	hdr := wire.IPv6Header{HopLimit: ttl, Src: src, Dst: dst}
	var udp wire.UDPHeader
	var tcp wire.TCPHeader
	var icmp wire.ICMPv6Header
	switch c.proto {
	case wire.ProtoUDP:
		udp = wire.UDPHeader{SrcPort: sum, DstPort: 80}
	case wire.ProtoTCP:
		tcp = wire.TCPHeader{SrcPort: sum, DstPort: 80, Flags: wire.TCPSyn, Window: 65535}
	default:
		icmp = wire.ICMPv6Header{Type: wire.ICMPv6EchoRequest, ID: sum, Seq: 80}
	}
	return wire.BuildPacket(buf, &hdr, c.proto, &udp, &tcp, &icmp, payload)
}

// Epoch returns the campaign time origin used for RTT timestamps.
func (c *Codec) Epoch() time.Duration { return c.epoch }

// SetEpoch re-anchors the campaign time origin. A resumed campaign
// restores the interrupted run's epoch so the elapsed timestamps its
// probes embed — and the RTTs recovered from quoted replies — continue
// the original series instead of restarting from the resume instant.
func (c *Codec) SetEpoch(epoch time.Duration) { c.epoch = epoch }

// targetSum is the per-target constant carried in ports/identifiers and
// forced into the transport checksum.
func targetSum(target netip.Addr) uint16 {
	s := wire.AddrChecksum(target)
	if s == 0 {
		return 0xffff
	}
	return s
}

// BuildProbe constructs the wire packet for (target, ttl) into buf,
// returning its length, stamped with the connection's current time.
func (c *Codec) BuildProbe(buf []byte, target netip.Addr, ttl uint8) int {
	return c.BuildProbeAt(buf, target, ttl, c.conn.Now())
}

// BuildProbeAt is BuildProbe with an explicit virtual send time: the
// elapsed timestamp embedded in the payload (and folded into the
// checksum fudge) is derived from at instead of the connection clock.
// The batched prober pre-builds a whole send batch with each packet
// stamped for its own future departure instant — the clock advances by
// exactly one inter-probe gap per send, so the predicted instants equal
// the actual ones and the wire bytes match a per-probe build exactly.
//
// No header is marshalled and no byte is checksummed: a probe differs
// from the codec's constant image only in the destination, the
// per-target constant in two 16-bit fields, and the hop limit, instance,
// TTL, elapsed time and fudge. The build copies the image, stores those,
// and solves the fudge by ones'-complement arithmetic on the image's
// base sum — the cost is the same for every probe, whatever the number
// of targets, and the bytes are those of a full serialization.
func (c *Codec) BuildProbeAt(buf []byte, target netip.Addr, ttl uint8, at time.Duration) int {
	elapsed := uint32((at - c.epoch) / time.Microsecond)
	pkt := buf[:c.imgLen]
	copy(pkt, c.img[:c.imgLen])
	dst := target.As16()
	copy(pkt[24:40], dst[:])

	// The constant carried in the port/identifier and forced into the
	// transport checksum.
	sum := targetSum(target)
	pkt[c.sumOff], pkt[c.sumOff+1] = byte(sum>>8), byte(sum)
	pkt[c.ckOff], pkt[c.ckOff+1] = byte(sum>>8), byte(sum)

	po := c.payloadOff
	pkt[7] = ttl
	pkt[po+4] = c.instance
	pkt[po+5] = ttl
	binary.BigEndian.PutUint32(pkt[po+6:po+10], elapsed)

	// With the wanted checksum installed the ones'-complement sum over
	// pseudo-header and segment must come to 0xffff, so the fudge is its
	// complement deficit. The destination adds its folded sum to the
	// pseudo-header and the constant — that sum's complement — appears
	// twice; one copy cancels the destination (x + ^x = 0xffff, which is
	// zero in this arithmetic), the other is added here. Six terms of
	// at most 16 bits each: two folds reach 16 bits.
	raw := c.base + uint32(sum) + uint32(c.instance)<<8 + uint32(ttl) + elapsed>>16 + elapsed&0xffff
	raw = raw>>16 + raw&0xffff
	raw = raw>>16 + raw&0xffff
	fudge := 0xffff - uint16(raw)
	pkt[po+10] = byte(fudge >> 8)
	pkt[po+11] = byte(fudge)
	return c.imgLen
}

// ParseReply decodes one received packet and reconstructs probe state.
// ok is false for packets that are not attributable responses to this
// codec's probes (wrong transport, failed authentication, undecodable).
func (c *Codec) ParseReply(b []byte) (Reply, bool) {
	if c.dec.Decode(b) != nil || c.dec.Proto == 0 {
		return Reply{}, false
	}
	r := Reply{At: c.conn.Now(), From: c.dec.IPv6.Src, Proto: c.proto}

	switch {
	case c.dec.Proto == wire.ProtoICMPv6 &&
		(c.dec.ICMPv6.Type == wire.ICMPv6TimeExceeded || c.dec.ICMPv6.Type == wire.ICMPv6DstUnreach):
		if c.dec.ICMPv6.Type == wire.ICMPv6TimeExceeded {
			r.Kind = KindTimeExceeded
		} else {
			r.Kind = KindDestUnreach
		}
		r.Type = c.dec.ICMPv6.Type
		r.Code = c.dec.ICMPv6.Code
		if !c.recoverFromQuote(&r) {
			return Reply{}, false
		}
		return r, true

	case c.dec.Proto == wire.ProtoICMPv6 && c.dec.ICMPv6.Type == wire.ICMPv6EchoReply:
		if c.proto != wire.ProtoICMPv6 {
			return Reply{}, false
		}
		if c.dec.ICMPv6.ID != targetSum(c.dec.IPv6.Src) || c.dec.ICMPv6.Seq != 80 {
			c.NotMine++
			return Reply{}, false
		}
		r.Kind = KindEchoReply
		r.Type = wire.ICMPv6EchoReply
		r.Target = c.dec.IPv6.Src
		r.StateRecovered = c.recoverEchoPayload(&r)
		return r, true

	case c.dec.Proto == wire.ProtoTCP && c.dec.TCP.Flags&wire.TCPRst != 0:
		if c.proto != wire.ProtoTCP {
			return Reply{}, false
		}
		if c.dec.TCP.DstPort != targetSum(c.dec.IPv6.Src) {
			c.NotMine++
			return Reply{}, false
		}
		r.Kind = KindTCPRst
		r.Target = c.dec.IPv6.Src
		r.StateRecovered = true
		return r, true
	}
	return Reply{}, false
}

// recoverFromQuote reconstructs probe state from the ICMPv6 error
// quotation. It reports false only when the reply is authenticated as
// someone else's; truncated quotations degrade to a usable reply with
// TTL zero.
func (c *Codec) recoverFromQuote(r *Reply) bool {
	q := c.dec.Payload
	if len(q) < wire.IPv6HeaderLen {
		return true // interface address alone is still a discovery
	}
	if c.inner.Decode(q) != nil {
		var hdr wire.IPv6Header
		if hdr.Unmarshal(q) == nil {
			r.Target = hdr.Dst
		}
		return true
	}
	r.Target = c.inner.IPv6.Dst
	if c.inner.Proto != c.proto {
		c.NotMine++
		return false
	}
	var got uint16
	switch c.inner.Proto {
	case wire.ProtoUDP:
		got = c.inner.UDP.SrcPort
	case wire.ProtoTCP:
		got = c.inner.TCP.SrcPort
	default:
		got = c.inner.ICMPv6.ID
	}
	if got != targetSum(r.Target) {
		r.TargetRewritten = true
	}
	pl := c.inner.Payload
	if len(pl) < PayloadLen {
		return true // truncating middlebox: state lost, reply still ours
	}
	if binary.BigEndian.Uint32(pl[0:4]) != Magic || pl[4] != c.instance {
		c.NotMine++
		return false
	}
	r.TTL = pl[5]
	sent := time.Duration(binary.BigEndian.Uint32(pl[6:10])) * time.Microsecond
	if now := c.conn.Now() - c.epoch; now >= sent {
		r.RTT = now - sent
	}
	r.StateRecovered = true
	return true
}

func (c *Codec) recoverEchoPayload(r *Reply) bool {
	pl := c.dec.Payload
	if len(pl) < PayloadLen || binary.BigEndian.Uint32(pl[0:4]) != Magic || pl[4] != c.instance {
		return false
	}
	r.TTL = pl[5]
	sent := time.Duration(binary.BigEndian.Uint32(pl[6:10])) * time.Microsecond
	if now := c.conn.Now() - c.epoch; now >= sent {
		r.RTT = now - sent
	}
	return true
}
