package probe

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"net/netip"
	"slices"

	"beholder/internal/sorted"
)

// Store serialization for campaign checkpointing. The encoding is a
// plain length-prefixed binary layout in canonical order — counters,
// then the sorted interface set, then traces sorted by target with hops
// sorted by TTL — so the same store always encodes to the same bytes.
// The TTL-seen bitmaps, slab allocators, and the last-trace memo are
// reconstruction artifacts and are rebuilt on decode rather than
// stored.

// ErrStoreDecode is wrapped by every store-decoding failure.
var ErrStoreDecode = errors.New("probe: malformed store encoding")

// canonicalize brings the canonical index into encoding order.
func (s *Store) canonicalize() {
	sorted.Tail(s.ifaceIdx, s.ifacesSorted, netip.Addr.Compare)
	s.ifacesSorted = len(s.ifaceIdx)
	sorted.Tail(s.traceIdx, s.tracesSorted, func(a, b *Trace) int { return a.Target.Compare(b.Target) })
	s.tracesSorted = len(s.traceIdx)
}

// EncodedSize returns the exact length of the store's encoding.
func (s *Store) EncodedSize() int {
	n := 1 + 5*8 + 4 + 9*len(s.DestUnreachByCode) + 4 + 16*len(s.ifaceIdx) + 4
	for _, t := range s.traceIdx {
		n += 16 + 1 + 4 + 17*len(t.Hops) + 4 + 9*len(t.DestUnreach)
	}
	return n
}

// sortedCodes returns m's keys ascending, in scratch.
func sortedCodes[V any](m map[uint8]V, scratch *[256]uint8) []uint8 {
	codes := scratch[:0]
	for code := range m {
		codes = append(codes, code)
	}
	slices.Sort(codes)
	return codes
}

// AppendBinary appends the store's canonical binary encoding to buf. It
// grows buf once, to the exact size, and walks the canonical index, so
// an encode into a large enough buffer allocates only the scratch of
// the index tail merge. Like Add and Merge it reorders store internals
// and must not run concurrently with any other method.
func (s *Store) AppendBinary(buf []byte) []byte {
	s.canonicalize()
	buf = slices.Grow(buf, s.EncodedSize())
	flag := byte(0)
	if s.recordPaths {
		flag = 1
	}
	buf = append(buf, flag)
	buf = appendI64(buf, s.TimeExceeded)
	buf = appendI64(buf, s.EchoReplies)
	buf = appendI64(buf, s.TCPRsts)
	buf = appendI64(buf, s.Unparseable)
	buf = appendI64(buf, s.Rewritten)

	var scratch [256]uint8
	codes := sortedCodes(s.DestUnreachByCode, &scratch)
	buf = appendU32(buf, uint32(len(codes)))
	for _, code := range codes {
		buf = append(buf, code)
		buf = appendI64(buf, s.DestUnreachByCode[code])
	}

	buf = appendU32(buf, uint32(len(s.ifaceIdx)))
	for _, a := range s.ifaceIdx {
		a16 := a.As16()
		buf = append(buf, a16[:]...)
	}

	// Hop addresses by TTL: a trace's hops land in their slots and are
	// read back along its TTL bitmap, which holds exactly the TTLs in
	// Hops — path order without a sort. Slots of other traces' TTLs are
	// stale but never read.
	var byTTL [256]netip.Addr
	buf = appendU32(buf, uint32(len(s.traceIdx)))
	for _, t := range s.traceIdx {
		t16 := t.Target.As16()
		buf = append(buf, t16[:]...)
		reached := byte(0)
		if t.Reached {
			reached = 1
		}
		buf = append(buf, reached)
		buf = appendU32(buf, uint32(len(t.Hops)))
		for _, h := range t.Hops {
			byTTL[h.TTL] = h.Addr
		}
		for w, word := range t.seen {
			for ; word != 0; word &= word - 1 {
				ttl := w<<6 | bits.TrailingZeros64(word)
				h16 := byTTL[ttl].As16()
				buf = append(buf, byte(ttl))
				buf = append(buf, h16[:]...)
			}
		}
		codes := sortedCodes(t.DestUnreach, &scratch)
		buf = appendU32(buf, uint32(len(codes)))
		for _, code := range codes {
			buf = append(buf, code)
			buf = appendI64(buf, int64(t.DestUnreach[code]))
		}
	}
	return buf
}

// DecodeStore reconstructs a store from its canonical encoding. It
// never panics on malformed input; every failure wraps ErrStoreDecode.
func DecodeStore(data []byte) (*Store, error) {
	r := byteReader{buf: data}
	flag, err := r.u8()
	if err != nil {
		return nil, err
	}
	s := NewStore(flag != 0)
	if s.TimeExceeded, err = r.i64(); err != nil {
		return nil, err
	}
	if s.EchoReplies, err = r.i64(); err != nil {
		return nil, err
	}
	if s.TCPRsts, err = r.i64(); err != nil {
		return nil, err
	}
	if s.Unparseable, err = r.i64(); err != nil {
		return nil, err
	}
	if s.Rewritten, err = r.i64(); err != nil {
		return nil, err
	}

	nCodes, err := r.count(9)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nCodes; i++ {
		code, err := r.u8()
		if err != nil {
			return nil, err
		}
		n, err := r.i64()
		if err != nil {
			return nil, err
		}
		s.DestUnreachByCode[code] = n
	}

	nIfaces, err := r.count(16)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nIfaces; i++ {
		a, err := r.addr()
		if err != nil {
			return nil, err
		}
		s.addInterface(a)
	}

	nTraces, err := r.count(16 + 1 + 4 + 4)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nTraces; i++ {
		target, err := r.addr()
		if err != nil {
			return nil, err
		}
		reached, err := r.u8()
		if err != nil {
			return nil, err
		}
		t := &Trace{Target: target, Reached: reached != 0}
		nHops, err := r.count(17)
		if err != nil {
			return nil, err
		}
		for j := 0; j < nHops; j++ {
			ttl, err := r.u8()
			if err != nil {
				return nil, err
			}
			a, err := r.addr()
			if err != nil {
				return nil, err
			}
			if !t.HasTTL(ttl) {
				t.markTTL(ttl)
				t.Hops = append(t.Hops, HopEntry{TTL: ttl, Addr: a})
			}
		}
		nT, err := r.count(9)
		if err != nil {
			return nil, err
		}
		for j := 0; j < nT; j++ {
			code, err := r.u8()
			if err != nil {
				return nil, err
			}
			n, err := r.i64()
			if err != nil {
				return nil, err
			}
			if t.DestUnreach == nil {
				t.DestUnreach = make(map[uint8]int)
			}
			t.DestUnreach[code] = int(n)
		}
		if s.recordPaths && s.traces[target] == nil {
			s.addTrace(t)
		}
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrStoreDecode, len(data)-r.off)
	}
	return s, nil
}

func appendU32(buf []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(buf, v)
}

func appendI64(buf []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(buf, uint64(v))
}

// byteReader is a bounds-checked cursor over an untrusted encoding.
type byteReader struct {
	buf []byte
	off int
}

func (r *byteReader) need(n int) error {
	if len(r.buf)-r.off < n {
		return fmt.Errorf("%w: truncated at offset %d (need %d bytes)", ErrStoreDecode, r.off, n)
	}
	return nil
}

func (r *byteReader) u8() (byte, error) {
	if err := r.need(1); err != nil {
		return 0, err
	}
	b := r.buf[r.off]
	r.off++
	return b, nil
}

func (r *byteReader) u32() (uint32, error) {
	if err := r.need(4); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v, nil
}

func (r *byteReader) i64() (int64, error) {
	if err := r.need(8); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return int64(v), nil
}

// count reads a length prefix and rejects values that could not
// possibly fit in the remaining input (each element needs at least
// elemMin bytes), so corrupt lengths fail fast instead of driving huge
// allocations.
func (r *byteReader) count(elemMin int) (int, error) {
	v, err := r.u32()
	if err != nil {
		return 0, err
	}
	if int64(v)*int64(elemMin) > int64(len(r.buf)-r.off) {
		return 0, fmt.Errorf("%w: implausible count %d at offset %d", ErrStoreDecode, v, r.off)
	}
	return int(v), nil
}

func (r *byteReader) addr() (netip.Addr, error) {
	if err := r.need(16); err != nil {
		return netip.Addr{}, err
	}
	var a16 [16]byte
	copy(a16[:], r.buf[r.off:])
	r.off += 16
	return netip.AddrFrom16(a16), nil
}
