package wire

import (
	"encoding/binary"
	"fmt"
	"strconv"
)

// ProtoOfTransport maps a transport name — "icmp6" (also "icmpv6" or
// empty), "udp" or "tcp" — to its protocol number.
func ProtoOfTransport(name string) (uint8, error) {
	switch name {
	case "", "icmp6", "icmpv6":
		return ProtoICMPv6, nil
	case "udp":
		return ProtoUDP, nil
	case "tcp":
		return ProtoTCP, nil
	}
	return 0, fmt.Errorf("unknown transport %q", name)
}

// TransportName names a protocol number the way ProtoOfTransport reads
// it; a number it does not know prints in decimal.
func TransportName(p uint8) string {
	switch p {
	case ProtoICMPv6:
		return "icmp6"
	case ProtoUDP:
		return "udp"
	case ProtoTCP:
		return "tcp"
	}
	return strconv.Itoa(int(p))
}

// UDPHeaderLen is the fixed UDP header length.
const UDPHeaderLen = 8

// UDPHeader is the RFC 768 header.
type UDPHeader struct {
	SrcPort, DstPort uint16
	Length           uint16
	Checksum         uint16
}

// Marshal writes the header into b (at least UDPHeaderLen bytes).
func (h *UDPHeader) Marshal(b []byte) int {
	binary.BigEndian.PutUint16(b[0:2], h.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], h.DstPort)
	binary.BigEndian.PutUint16(b[4:6], h.Length)
	binary.BigEndian.PutUint16(b[6:8], h.Checksum)
	return UDPHeaderLen
}

// Unmarshal parses the header from b.
func (h *UDPHeader) Unmarshal(b []byte) error {
	if len(b) < UDPHeaderLen {
		return errShortUDP
	}
	h.SrcPort = binary.BigEndian.Uint16(b[0:2])
	h.DstPort = binary.BigEndian.Uint16(b[2:4])
	h.Length = binary.BigEndian.Uint16(b[4:6])
	h.Checksum = binary.BigEndian.Uint16(b[6:8])
	return nil
}

// TCPHeaderLen is the minimum (option-free) TCP header length. Probe
// packets never carry TCP options.
const TCPHeaderLen = 20

// TCP flag bits.
const (
	TCPFin = 1 << 0
	TCPSyn = 1 << 1
	TCPRst = 1 << 2
	TCPPsh = 1 << 3
	TCPAck = 1 << 4
)

// TCPHeader is an option-free RFC 9293 header.
type TCPHeader struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	Window           uint16
	Checksum         uint16
	Urgent           uint16
}

// Marshal writes the header into b (at least TCPHeaderLen bytes).
func (h *TCPHeader) Marshal(b []byte) int {
	binary.BigEndian.PutUint16(b[0:2], h.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], h.DstPort)
	binary.BigEndian.PutUint32(b[4:8], h.Seq)
	binary.BigEndian.PutUint32(b[8:12], h.Ack)
	b[12] = (TCPHeaderLen / 4) << 4 // data offset, no options
	b[13] = h.Flags
	binary.BigEndian.PutUint16(b[14:16], h.Window)
	binary.BigEndian.PutUint16(b[16:18], h.Checksum)
	binary.BigEndian.PutUint16(b[18:20], h.Urgent)
	return TCPHeaderLen
}

// Unmarshal parses the header from b. DataLen reports the data offset so
// callers can skip options in foreign packets.
func (h *TCPHeader) Unmarshal(b []byte) error {
	if len(b) < TCPHeaderLen {
		return errShortTCP
	}
	h.SrcPort = binary.BigEndian.Uint16(b[0:2])
	h.DstPort = binary.BigEndian.Uint16(b[2:4])
	h.Seq = binary.BigEndian.Uint32(b[4:8])
	h.Ack = binary.BigEndian.Uint32(b[8:12])
	h.Flags = b[13]
	h.Window = binary.BigEndian.Uint16(b[14:16])
	h.Checksum = binary.BigEndian.Uint16(b[16:18])
	h.Urgent = binary.BigEndian.Uint16(b[18:20])
	return nil
}

// ICMPv6 message types used in the study (RFC 4443).
const (
	ICMPv6DstUnreach   = 1
	ICMPv6PacketTooBig = 2
	ICMPv6TimeExceeded = 3
	ICMPv6ParamProblem = 4
	ICMPv6EchoRequest  = 128
	ICMPv6EchoReply    = 129
)

// ICMPv6 destination-unreachable codes (RFC 4443 §3.1). Table 4 reports the
// response mix across these codes.
const (
	CodeNoRoute         = 0
	CodeAdminProhibited = 1
	CodeBeyondScope     = 2
	CodeAddrUnreachable = 3
	CodePortUnreachable = 4
	CodeFailedPolicy    = 5
	CodeRejectRoute     = 6
)

// ICMPv6HeaderLen is the fixed 8-byte ICMPv6 header (type, code, checksum,
// and the 4 message-specific bytes: ID/Seq for echo, unused for errors).
const ICMPv6HeaderLen = 8

// ICMPv6Header is the common ICMPv6 header. For echo messages ID and Seq
// hold the identifier and sequence; for error messages they are unused
// (zero on the wire).
type ICMPv6Header struct {
	Type     uint8
	Code     uint8
	Checksum uint16
	ID       uint16 // echo identifier / unused for errors
	Seq      uint16 // echo sequence / unused for errors
}

// Marshal writes the header into b (at least ICMPv6HeaderLen bytes).
func (h *ICMPv6Header) Marshal(b []byte) int {
	b[0] = h.Type
	b[1] = h.Code
	binary.BigEndian.PutUint16(b[2:4], h.Checksum)
	binary.BigEndian.PutUint16(b[4:6], h.ID)
	binary.BigEndian.PutUint16(b[6:8], h.Seq)
	return ICMPv6HeaderLen
}

// Unmarshal parses the header from b.
func (h *ICMPv6Header) Unmarshal(b []byte) error {
	if len(b) < ICMPv6HeaderLen {
		return errShortICMPv6
	}
	h.Type = b[0]
	h.Code = b[1]
	h.Checksum = binary.BigEndian.Uint16(b[2:4])
	h.ID = binary.BigEndian.Uint16(b[4:6])
	h.Seq = binary.BigEndian.Uint16(b[6:8])
	return nil
}
