package probe

import (
	"bytes"
	"errors"
	"net/netip"
	"testing"
	"time"

	"beholder/internal/wire"
)

// fuzzConn is a minimal stationary Conn for codec fuzzing: a fixed
// source address and a clock only the fuzz bodies advance. The embedded
// nil Conn fills out the interface; neither the codec nor the bodies
// call anything else.
type fuzzConn struct {
	Conn
	addr netip.Addr
	now  time.Duration
}

func (c *fuzzConn) LocalAddr() netip.Addr { return c.addr }
func (c *fuzzConn) Now() time.Duration    { return c.now }
func (c *fuzzConn) Sleep(d time.Duration) { c.now += d }

// FuzzParseReply feeds arbitrary bytes to the reply parser — the code
// that faces the raw network — and checks it never panics and never
// attributes garbage: any accepted reply must carry a valid source
// address and a self-consistent kind.
func FuzzParseReply(f *testing.F) {
	conn := &fuzzConn{addr: netip.MustParseAddr("2001:db8:100::1")}
	codec := NewCodec(conn, wire.ProtoICMPv6, 7)

	// Seed with a genuine quoted Time Exceeded for a probe this codec
	// built, plus truncations (middlebox behaviour) and the bare probe.
	var probe [128]byte
	target := netip.MustParseAddr("2001:db8:200::2")
	n := codec.BuildProbe(probe[:], target, 9)
	f.Add(append([]byte(nil), probe[:n]...))
	var errBuf [wire.MinMTU]byte
	router := netip.MustParseAddr("2001:db8:300::3")
	en := wire.BuildICMPv6Error(errBuf[:], wire.ICMPv6TimeExceeded, 0, router, conn.addr, probe[:n], 60)
	f.Add(append([]byte(nil), errBuf[:en]...))
	f.Add(append([]byte(nil), errBuf[:en-PayloadLen]...)) // truncated quotation
	f.Add(append([]byte(nil), errBuf[:wire.IPv6HeaderLen+wire.ICMPv6HeaderLen+8]...))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, ok := codec.ParseReply(data)
		if !ok {
			return
		}
		if !r.From.IsValid() {
			t.Fatal("accepted reply with invalid source")
		}
		switch r.Kind {
		case KindTimeExceeded, KindDestUnreach, KindEchoReply, KindTCPRst:
		default:
			t.Fatalf("accepted reply with kind %d", r.Kind)
		}
		if r.Kind == KindEchoReply && r.Target != r.From {
			t.Fatal("echo reply target must be its source")
		}
		// A store must absorb anything the parser accepts.
		NewStore(true).Add(r)
	})
}

// FuzzProbeBuildEquivalence holds the arithmetic probe build to the full
// serialization: for any (target, TTL, transport, instance, send time)
// the packet BuildProbeAt derives from the codec's constant image must be
// byte-identical to buildProbeSlow's, carry the per-target constant in
// its checksum field, and verify against a full checksum recompute. The
// seeds cover each transport, an address whose folded sum is 0xffff (its
// checksum constant takes the 0 → 0xffff branch), instances 0 and 255,
// and send times of zero and past 2¹⁶ µs (both elapsed halves nonzero).
func FuzzProbeBuildEquivalence(f *testing.F) {
	f.Add([]byte{0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 1}, uint8(1), uint8(0), uint8(7), uint32(0))
	f.Add([]byte{0x20, 0x01, 0xff, 0xff}, uint8(16), uint8(1), uint8(0), uint32(200_000))
	f.Add([]byte{0x3f, 0xfe}, uint8(255), uint8(2), uint8(255), uint32(63_000))
	f.Add([]byte{0x20, 0x00, 0xdf, 0xff}, uint8(9), uint8(0), uint8(255), uint32(1<<16+1))
	f.Add([]byte{0x20, 0x00, 0xdf, 0xff}, uint8(0), uint8(1), uint8(0), uint32(0))
	f.Add([]byte{0x20, 0x00, 0, 0, 0xdf, 0xff}, uint8(32), uint8(2), uint8(1), uint32(1<<32-1))

	f.Fuzz(func(t *testing.T, targetSeed []byte, ttl, protoSel, instance uint8, elapsedUs uint32) {
		proto := []uint8{wire.ProtoICMPv6, wire.ProtoUDP, wire.ProtoTCP}[int(protoSel)%3]
		var tb [16]byte
		copy(tb[:], targetSeed)
		tb[0] |= 0x20
		target := netip.AddrFrom16(tb)

		conn := &fuzzConn{addr: netip.MustParseAddr("2001:db8:100::1")}
		codec := NewCodec(conn, proto, instance)
		at := time.Duration(elapsedUs) * time.Microsecond

		var a, b, g [128]byte
		na := codec.buildProbeSlow(a[:], target, ttl, at)
		nb := codec.BuildProbeAt(b[:], target, ttl, at)
		if na != nb || !bytes.Equal(a[:na], b[:nb]) {
			t.Fatalf("arithmetic build differs from full serialization for %s ttl %d proto %d instance %d at %v:\n got %x\nwant %x",
				target, ttl, proto, instance, at, b[:nb], a[:na])
		}
		var d wire.Decoded
		if err := d.Decode(b[:nb]); err != nil {
			t.Fatalf("built probe does not decode: %v", err)
		}
		if !d.VerifyTransportChecksum(b[:nb]) {
			t.Fatal("arithmetic checksum fudge does not verify against full recompute")
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
		if ck != targetSum(target) {
			t.Fatalf("transport checksum %#04x, want the per-target constant %#04x", ck, targetSum(target))
		}

		// Batch-build equivalence: BuildProbeAt stamped for a future
		// instant must equal BuildProbe issued once the clock reaches
		// that instant — the exact prediction the batched prober makes
		// when it pre-builds a send batch.
		conn.Sleep(at)
		ng := codec.BuildProbe(g[:], target, ttl)
		if ng != nb || !bytes.Equal(g[:ng], b[:nb]) {
			t.Fatalf("pre-stamped build differs from build-at-send for %s ttl %d proto %d", target, ttl, proto)
		}
	})
}

// FuzzDecodeStore feeds DecodeStore arbitrary bytes — directly, not
// behind the checkpoint artifact's CRC framing, which a fuzzer rarely
// gets past. It must never panic, fail only with ErrStoreDecode, and
// accept nothing but canonical encodings: whatever decodes re-encodes to
// exactly the input. Every decoded hop must read back through
// ForEachHop as an id of an address the store's table holds, in strictly
// ascending TTL order ending at the trace's PathLength.
func FuzzDecodeStore(f *testing.F) {
	f.Add(NewStore(true).AppendBinary(nil))
	f.Add(NewStore(false).AppendBinary(nil))
	f.Add(storeFixture(true).AppendBinary(nil))
	f.Add(storeFixture(false).AppendBinary(nil))
	f.Add(nonPositiveCounts().encode())
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeStore(data)
		if err != nil {
			if !errors.Is(err, ErrStoreDecode) {
				t.Fatalf("decode error %v does not wrap ErrStoreDecode", err)
			}
			return
		}
		if got := s.AppendBinary(nil); !bytes.Equal(got, data) {
			t.Fatalf("accepted a non-canonical encoding:\n  in %x\n out %x", data, got)
		}
		tab := s.AddrTable()
		for _, tr := range s.Traces() {
			hops, last := 0, -1
			s.ForEachHop(tr, func(ttl uint8, id uint32) {
				if int(id) >= tab.Len() {
					t.Fatalf("trace %s: hop id %d outside a table of %d", tr.Target(), id, tab.Len())
				}
				if got, _, ok := tab.Find(tab.Addr(id)); !ok || got != id {
					t.Fatalf("trace %s: hop id %d does not name its address %s", tr.Target(), id, tab.Addr(id))
				}
				if int(ttl) <= last || !tr.HasTTL(ttl) {
					t.Fatalf("trace %s: hop TTL %d after %d, or missing from the TTL bitmap", tr.Target(), ttl, last)
				}
				hops, last = hops+1, int(ttl)
			})
			if hops > 0 && last != tr.PathLength() || hops == 0 && tr.PathLength() != 0 {
				t.Fatalf("trace %s: last hop TTL %d, PathLength %d", tr.Target(), last, tr.PathLength())
			}
		}
	})
}

// TestParseTruncatedQuoteAllocs: a Time Exceeded whose quote a legacy
// router cut to 48 bytes — the probe's IPv6 header and 8 transport
// bytes, too short for its declared payload — parses to a reply for the
// quoted target with its state lost, and parsing it allocates nothing:
// the failed inner decode returns a preallocated error.
func TestParseTruncatedQuoteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not representative under -race")
	}
	conn := &fuzzConn{addr: netip.MustParseAddr("2001:db8:100::1")}
	codec := NewCodec(conn, wire.ProtoICMPv6, 7)
	var probe [128]byte
	target := netip.MustParseAddr("2001:db8:200::2")
	n := codec.BuildProbe(probe[:], target, 9)
	var pkt [wire.MinMTU]byte
	router := netip.MustParseAddr("2001:db8:300::3")
	pn := wire.BuildICMPv6Error(pkt[:], wire.ICMPv6TimeExceeded, 0, router, conn.addr, probe[:min(n, 48)], 60)

	r, ok := codec.ParseReply(pkt[:pn])
	if !ok || r.Kind != KindTimeExceeded || r.From != router || r.Target != target || r.TTL != 0 || r.StateRecovered {
		t.Fatalf("truncated quote parsed to %+v, ok=%v; want a stateless Time Exceeded for %s from %s", r, ok, target, router)
	}
	if allocs := testing.AllocsPerRun(100, func() { codec.ParseReply(pkt[:pn]) }); allocs != 0 {
		t.Fatalf("parsing a truncated-quote reply allocates %.0f times, want 0", allocs)
	}
}
