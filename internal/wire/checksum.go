// Package wire implements wire-format encoding and decoding for the packet
// types the study emits and receives: IPv6 headers, TCP, UDP, and ICMPv6,
// including Internet checksums over the IPv6 pseudo-header (RFC 8200 §8.1).
//
// The design follows the shape of gopacket's DecodingLayerParser: decoding
// fills caller-owned, preallocated structs and retains sub-slices of the
// input buffer, so steady-state probing and reply handling allocate nothing.
// Serialization writes fixed-layout headers into caller-provided buffers.
package wire

import (
	"encoding/binary"
	"net/netip"
)

// Protocol numbers used by the study (IANA assigned).
const (
	ProtoTCP    = 6
	ProtoUDP    = 17
	ProtoICMPv6 = 58
)

// Checksummer accumulates a 16-bit ones'-complement Internet checksum.
// The zero value is ready to use.
type Checksummer struct {
	sum uint32
	odd bool // a dangling high byte from an odd-length Add is pending
}

// Add folds data into the running sum, handling odd-length chunks so that
// byte alignment is preserved across calls.
//
// The bulk of the input is consumed eight bytes per iteration: the
// ones'-complement sum is invariant under any word partition (carries
// into a higher 16-bit lane are congruent to 1 modulo 0xffff, which the
// end-around folds restore), so wide accumulation produces bit-identical
// checksums to the byte-pair reference loop at roughly a quarter of the
// cost — this is the hottest function on the reply-synthesis path, where
// every ICMPv6 error checksums up to a full quoted probe.
func (c *Checksummer) Add(data []byte) {
	i := 0
	if c.odd && len(data) > 0 {
		c.sum += uint32(data[0])
		i = 1
		c.odd = false
	}
	if len(data)-i >= 16 {
		// acc collects 32-bit big-endian halves; packets are far below
		// the ~2^31 iterations that could overflow the accumulator.
		var acc uint64
		for ; i+8 <= len(data); i += 8 {
			v := binary.BigEndian.Uint64(data[i:])
			acc += v>>32 + v&0xffffffff
		}
		for acc > 0xffff {
			acc = acc>>16 + acc&0xffff
		}
		c.sum += uint32(acc)
	}
	for ; i+1 < len(data); i += 2 {
		c.sum += uint32(data[i])<<8 | uint32(data[i+1])
	}
	if i < len(data) {
		c.sum += uint32(data[i]) << 8
		c.odd = true
	}
}

// addrFold returns the ones'-complement partial sum of an address's
// sixteen bytes, folded to 16 bits (same wide-word congruence argument
// as Add).
func addrFold(a netip.Addr) uint32 {
	b := a.As16()
	hi := binary.BigEndian.Uint64(b[0:8])
	lo := binary.BigEndian.Uint64(b[8:16])
	acc := hi>>32 + hi&0xffffffff + lo>>32 + lo&0xffffffff
	// Three unrolled end-around folds reach 16 bits from any 34-bit sum
	// (folding a value at or below 0xffff is the identity), keeping the
	// function loop-free and inlinable into its per-probe callers.
	acc = acc>>16 + acc&0xffff
	acc = acc>>16 + acc&0xffff
	acc = acc>>16 + acc&0xffff
	return uint32(acc)
}

// AddPseudoHeader folds the IPv6 pseudo-header for the given addresses,
// upper-layer payload length, and next-header value. It must be called
// at an even byte offset (in practice: on a fresh Checksummer).
func (c *Checksummer) AddPseudoHeader(src, dst netip.Addr, length int, nextHeader uint8) {
	c.sum += addrFold(src) + addrFold(dst)
	c.sum += uint32(length >> 16)
	c.sum += uint32(length & 0xffff)
	c.sum += uint32(nextHeader)
}

// Sum finalizes and returns the checksum (already complemented, ready to
// store in a header field). All-zero results are returned as is; the UDP
// zero-means-no-checksum rule is the caller's concern.
func (c *Checksummer) Sum() uint16 {
	s := c.sum
	for s > 0xffff {
		s = (s >> 16) + (s & 0xffff)
	}
	return ^uint16(s)
}

// RawSum finalizes the folded but uncomplemented 16-bit sum. The Yarrp6
// checksum-fudge computation needs the raw sum to solve for the payload
// filler that keeps the transport checksum constant.
func (c *Checksummer) RawSum() uint16 {
	s := c.sum
	for s > 0xffff {
		s = (s >> 16) + (s & 0xffff)
	}
	return uint16(s)
}

// Checksum computes the transport checksum of payload under the IPv6
// pseudo-header in one call.
func Checksum(payload []byte, src, dst netip.Addr, nextHeader uint8) uint16 {
	var c Checksummer
	c.AddPseudoHeader(src, dst, len(payload), nextHeader)
	c.Add(payload)
	return c.Sum()
}

// AddrChecksum computes the 16-bit Internet checksum over a single IPv6
// address. Yarrp6 stores this value in the TCP/UDP source port or ICMPv6
// identifier so that replies whose quoted destination was rewritten by a
// middlebox can be detected (Section 4.1). It runs once per probe build
// and once per reply authentication, hence the direct fold.
func AddrChecksum(a netip.Addr) uint16 {
	return ^uint16(addrFold(a))
}
