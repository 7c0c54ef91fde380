package wire

import (
	"fmt"
	"net/netip"
)

// MinMTU is the minimum IPv6 link MTU (RFC 8200 §5). ICMPv6 error messages
// quote as much of the invoking packet as fits without the error packet
// exceeding this size (RFC 4443 §3.3) — the property Yarrp6 exploits to
// recover its state from quotations.
const MinMTU = 1280

// BuildTransport serializes a transport header plus payload into buf
// beginning at offset 0, computing the transport checksum under the
// (src,dst) pseudo-header. proto selects which header struct is consulted.
// It returns the number of bytes written.
//
// For ICMPv6 and TCP the Checksum field of the passed header is ignored and
// recomputed; for UDP likewise (RFC 2460 makes the UDP checksum mandatory
// over IPv6).
func BuildTransport(buf []byte, proto uint8, udp *UDPHeader, tcp *TCPHeader, icmp *ICMPv6Header, payload []byte, src, dst netip.Addr) int {
	var n int
	switch proto {
	case ProtoUDP:
		udp.Length = uint16(UDPHeaderLen + len(payload))
		udp.Checksum = 0
		n = udp.Marshal(buf)
	case ProtoTCP:
		tcp.Checksum = 0
		n = tcp.Marshal(buf)
	case ProtoICMPv6:
		icmp.Checksum = 0
		n = icmp.Marshal(buf)
	default:
		panic(fmt.Sprintf("wire: unsupported protocol %d", proto))
	}
	n += copy(buf[n:], payload)
	ck := Checksum(buf[:n], src, dst, proto)
	switch proto {
	case ProtoUDP:
		buf[6] = byte(ck >> 8)
		buf[7] = byte(ck)
	case ProtoTCP:
		buf[16] = byte(ck >> 8)
		buf[17] = byte(ck)
	case ProtoICMPv6:
		buf[2] = byte(ck >> 8)
		buf[3] = byte(ck)
	}
	return n
}

// BuildPacket serializes a complete IPv6 packet (header + transport +
// payload) into buf and returns the total length. hdr.PayloadLength is
// computed; hdr.NextHeader must equal proto.
func BuildPacket(buf []byte, hdr *IPv6Header, proto uint8, udp *UDPHeader, tcp *TCPHeader, icmp *ICMPv6Header, payload []byte) int {
	tlen := BuildTransport(buf[IPv6HeaderLen:], proto, udp, tcp, icmp, payload, hdr.Src, hdr.Dst)
	hdr.NextHeader = proto
	hdr.PayloadLength = uint16(tlen)
	hdr.Marshal(buf)
	return IPv6HeaderLen + tlen
}

// Decoded is a zero-allocation packet decode in the style of gopacket's
// DecodingLayerParser: Decode fills the preallocated header structs and
// records slices into the input buffer. Reusing one Decoded value across
// packets avoids per-packet allocation in the prober receive loop and the
// simulator forwarding path.
type Decoded struct {
	IPv6    IPv6Header
	Proto   uint8 // ProtoUDP, ProtoTCP, or ProtoICMPv6; 0 when unknown
	UDP     UDPHeader
	TCP     TCPHeader
	ICMPv6  ICMPv6Header
	Payload []byte // transport payload (for ICMPv6 errors: begins at quotation)
}

// Decode parses an IPv6 packet. Unknown next headers leave Proto zero with
// Payload holding the undecoded bytes; truncated transports return an error
// wrapping ErrTruncated.
func (d *Decoded) Decode(b []byte) error {
	if err := d.IPv6.Unmarshal(b); err != nil {
		return err
	}
	rest := b[IPv6HeaderLen:]
	// Trust PayloadLength when it is consistent; packets shorter than the
	// declared payload are truncated.
	if int(d.IPv6.PayloadLength) > len(rest) {
		return errShortPayload
	}
	rest = rest[:d.IPv6.PayloadLength]
	d.Proto = 0
	d.Payload = nil
	switch d.IPv6.NextHeader {
	case ProtoUDP:
		if err := d.UDP.Unmarshal(rest); err != nil {
			return err
		}
		d.Proto = ProtoUDP
		d.Payload = rest[UDPHeaderLen:]
	case ProtoTCP:
		if err := d.TCP.Unmarshal(rest); err != nil {
			return err
		}
		d.Proto = ProtoTCP
		d.Payload = rest[TCPHeaderLen:]
	case ProtoICMPv6:
		if err := d.ICMPv6.Unmarshal(rest); err != nil {
			return err
		}
		d.Proto = ProtoICMPv6
		d.Payload = rest[ICMPv6HeaderLen:]
	default:
		d.Payload = rest
	}
	return nil
}

// VerifyTransportChecksum recomputes the transport checksum of the decoded
// packet from the raw bytes b and reports whether it is valid.
func (d *Decoded) VerifyTransportChecksum(b []byte) bool {
	if d.Proto == 0 {
		return false
	}
	end := IPv6HeaderLen + int(d.IPv6.PayloadLength)
	if end > len(b) {
		return false
	}
	// A valid ones'-complement checksum over the transport segment
	// (checksum field included) folds to 0xffff, i.e. Sum() == 0.
	var c Checksummer
	c.AddPseudoHeader(d.IPv6.Src, d.IPv6.Dst, end-IPv6HeaderLen, d.Proto)
	c.Add(b[IPv6HeaderLen:end])
	return c.Sum() == 0
}

// BuildICMPv6Error constructs an ICMPv6 error message (Time Exceeded,
// Destination Unreachable, ...) from router source src toward dst, quoting
// the invoking packet per RFC 4443 §3.3: as much of invoking as fits
// without the error packet exceeding MinMTU. hopLimit is the emitted
// packet's hop limit. The result is appended into buf, which must have
// capacity for up to MinMTU bytes; the total length is returned.
func BuildICMPv6Error(buf []byte, typ, code uint8, src, dst netip.Addr, invoking []byte, hopLimit uint8) int {
	maxQuote := MinMTU - IPv6HeaderLen - ICMPv6HeaderLen
	quote := invoking
	if len(quote) > maxQuote {
		quote = quote[:maxQuote]
	}
	icmp := ICMPv6Header{Type: typ, Code: code}
	hdr := IPv6Header{HopLimit: hopLimit, Src: src, Dst: dst}
	return BuildPacket(buf, &hdr, ProtoICMPv6, nil, nil, &icmp, quote)
}

// BuildEchoReply constructs an ICMPv6 echo reply mirroring the request's
// identifier, sequence number, and payload.
func BuildEchoReply(buf []byte, src, dst netip.Addr, req *ICMPv6Header, payload []byte, hopLimit uint8) int {
	icmp := ICMPv6Header{Type: ICMPv6EchoReply, Code: 0, ID: req.ID, Seq: req.Seq}
	hdr := IPv6Header{HopLimit: hopLimit, Src: src, Dst: dst}
	return BuildPacket(buf, &hdr, ProtoICMPv6, nil, nil, &icmp, payload)
}

// BuildTCPRst constructs the RST+ACK a closed TCP port returns to a SYN.
func BuildTCPRst(buf []byte, src, dst netip.Addr, syn *TCPHeader, hopLimit uint8) int {
	rst := TCPHeader{
		SrcPort: syn.DstPort,
		DstPort: syn.SrcPort,
		Seq:     0,
		Ack:     syn.Seq + 1,
		Flags:   TCPRst | TCPAck,
	}
	hdr := IPv6Header{HopLimit: hopLimit, Src: src, Dst: dst}
	return BuildPacket(buf, &hdr, ProtoTCP, nil, &rst, nil, nil)
}
