package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// IPv6HeaderLen is the fixed length of the IPv6 base header.
const IPv6HeaderLen = 40

// Errors returned by the decoders.
var (
	ErrTruncated   = errors.New("wire: truncated packet")
	ErrBadVersion  = errors.New("wire: not an IPv6 packet")
	ErrBadChecksum = errors.New("wire: bad transport checksum")
)

// The decoders' per-packet failures, built once: a prober meets short
// packets at line rate (every quote a legacy router cuts to 48 bytes
// fails the inner decode), so a failed decode must not allocate. Each
// wraps ErrTruncated or ErrBadVersion.
var (
	errShortIPv6    = fmt.Errorf("%w: IPv6 header needs %d bytes", ErrTruncated, IPv6HeaderLen)
	errShortPayload = fmt.Errorf("%w: shorter than its declared payload", ErrTruncated)
	errShortUDP     = fmt.Errorf("%w: UDP header needs %d bytes", ErrTruncated, UDPHeaderLen)
	errShortTCP     = fmt.Errorf("%w: TCP header needs %d bytes", ErrTruncated, TCPHeaderLen)
	errShortICMPv6  = fmt.Errorf("%w: ICMPv6 header needs %d bytes", ErrTruncated, ICMPv6HeaderLen)
	errVersion      = fmt.Errorf("%w: version field is not 6", ErrBadVersion)
)

// IPv6Header is the 40-byte fixed IPv6 header (RFC 8200 §3).
type IPv6Header struct {
	TrafficClass  uint8
	FlowLabel     uint32 // 20 bits
	PayloadLength uint16
	NextHeader    uint8
	HopLimit      uint8
	Src, Dst      netip.Addr
}

// Marshal writes the header into b, which must be at least IPv6HeaderLen
// bytes. It returns the number of bytes written.
func (h *IPv6Header) Marshal(b []byte) int {
	_ = b[IPv6HeaderLen-1]
	b[0] = 6<<4 | h.TrafficClass>>4
	b[1] = h.TrafficClass<<4 | uint8(h.FlowLabel>>16)
	binary.BigEndian.PutUint16(b[2:4], uint16(h.FlowLabel))
	binary.BigEndian.PutUint16(b[4:6], h.PayloadLength)
	b[6] = h.NextHeader
	b[7] = h.HopLimit
	src := h.Src.As16()
	dst := h.Dst.As16()
	copy(b[8:24], src[:])
	copy(b[24:40], dst[:])
	return IPv6HeaderLen
}

// Unmarshal parses the header from b.
func (h *IPv6Header) Unmarshal(b []byte) error {
	if len(b) < IPv6HeaderLen {
		return errShortIPv6
	}
	if b[0]>>4 != 6 {
		return errVersion
	}
	h.TrafficClass = b[0]<<4 | b[1]>>4
	h.FlowLabel = uint32(b[1]&0x0f)<<16 | uint32(binary.BigEndian.Uint16(b[2:4]))
	h.PayloadLength = binary.BigEndian.Uint16(b[4:6])
	h.NextHeader = b[6]
	h.HopLimit = b[7]
	var a16 [16]byte
	copy(a16[:], b[8:24])
	h.Src = netip.AddrFrom16(a16)
	copy(a16[:], b[24:40])
	h.Dst = netip.AddrFrom16(a16)
	return nil
}
