package probe

import (
	"encoding/binary"
	"net/netip"
	"time"
)

// buildProbeSlow is the reference the arithmetic build is held to: full
// header and transport marshalling with a byte-summed checksum, then the
// wanted checksum forced and the payload fudge solved from the installed
// one.
func (c *Codec) buildProbeSlow(buf []byte, target netip.Addr, ttl uint8, at time.Duration) int {
	var payload [PayloadLen]byte
	binary.BigEndian.PutUint32(payload[0:4], Magic)
	payload[4] = c.instance
	payload[5] = ttl
	binary.BigEndian.PutUint32(payload[6:10], uint32((at-c.epoch)/time.Microsecond))
	// payload[10:12] is the checksum fudge, solved for below.

	want := targetSum(target)
	n := c.marshal(buf, c.conn.LocalAddr(), target, ttl, want, payload[:])
	pkt := buf[:n]

	// BuildPacket installed the true checksum over a zeroed fudge, and
	// its complement is the folded segment sum: with the wanted value in
	// its place the sum must come to 0xffff, so the fudge is the
	// complement deficit.
	have := uint16(pkt[c.ckOff])<<8 | uint16(pkt[c.ckOff+1])
	raw := uint32(^have) + uint32(want)
	raw = raw>>16 + raw&0xffff
	fudge := 0xffff - uint16(raw)
	pkt[c.ckOff] = byte(want >> 8)
	pkt[c.ckOff+1] = byte(want)
	pkt[n-2] = byte(fudge >> 8)
	pkt[n-1] = byte(fudge)
	return n
}
