package probe

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"beholder/internal/ipv6"
	"beholder/internal/sorted"
)

// Store serialization for campaign checkpointing. The encoding is a
// plain length-prefixed binary layout in canonical order — counters,
// then the sorted interface set, then traces sorted by target with hops
// sorted by TTL — so the same store always encodes to the same bytes.
// Hops are written as addresses, never as table ids: the ids, TTL-seen
// bitmaps, slab allocators, unreachable-entry links and the last-trace
// memo are reconstruction artifacts and are rebuilt on decode rather
// than stored.

// ErrStoreDecode is wrapped by every store-decoding failure.
var ErrStoreDecode = errors.New("probe: malformed store encoding")

// canonicalize brings the canonical index into encoding order.
func (s *Store) canonicalize() {
	sorted.Tail(s.ifaceIdx, s.ifacesSorted, func(a, b uint32) int { return s.tab.Key(a).Cmp(s.tab.Key(b)) })
	s.ifacesSorted = len(s.ifaceIdx)
	sorted.Tail(s.traceIdx, s.tracesSorted, func(a, b uint32) int { return s.row(a).target.Cmp(s.row(b).target) })
	s.tracesSorted = len(s.traceIdx)
}

// EncodedSize returns the exact length of the store's encoding.
func (s *Store) EncodedSize() int {
	n := 1 + 5*8 + 4 + 9*len(s.DestUnreachByCode) + 4 + 16*len(s.ifaceIdx) + 4 + 9*len(s.unreach)
	for _, tn := range s.traceIdx {
		n += 16 + 1 + 4 + 17*int(s.row(tn).nHops) + 4
	}
	return n
}

// sortedCodes returns m's keys ascending, in scratch.
func sortedCodes(m map[uint8]int64, scratch *[256]uint8) []uint8 {
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
	for _, id := range s.ifaceIdx {
		buf = appendKey(buf, s.tab.Key(id))
	}

	// Hops are kept in TTL order, so they are written as they stand, each
	// id resolved to its address. One address recurs across many traces
	// (every path shares its first hops), so a small direct-mapped cache
	// by id spares most hops the table's two dependent loads.
	var cache [256]struct {
		ref uint32 // id + 1; zero: empty
		k   ipv6.U128
	}
	buf = appendU32(buf, uint32(len(s.traceIdx)))
	for _, tn := range s.traceIdx {
		t := s.row(tn)
		buf = appendKey(buf, t.target)
		reached := byte(0)
		if t.Reached {
			reached = 1
		}
		buf = append(buf, reached)
		buf = appendU32(buf, uint32(t.nHops))
		for _, h := range s.hopsOf(t) {
			e := &cache[h.id%uint32(len(cache))]
			if e.ref != h.id+1 {
				e.ref, e.k = h.id+1, s.tab.Key(h.id)
			}
			buf = append(buf, h.ttl)
			buf = appendKey(buf, e.k)
		}
		// The chain runs in code order; its length is patched in after.
		at, k := len(buf), uint32(0)
		buf = appendU32(buf, 0)
		s.ForEachUnreach(t, func(code uint8, n int64) {
			buf = append(buf, code)
			buf = appendI64(buf, n)
			k++
		})
		binary.LittleEndian.PutUint32(buf[at:], k)
	}
	return buf
}

// DecodeStore reconstructs a store from its canonical encoding, reading
// the layout AppendBinary wrote straight through. It accepts exactly
// what AppendBinary can produce — flags of 0 or 1, code lists, interfaces
// and traces strictly ascending, hops strictly ascending by TTL, no
// traces in a path-less store — so whatever decodes re-encodes to the
// same bytes, and the decoded indexes arrive sorted. It never panics on
// malformed input; every failure wraps ErrStoreDecode.
func DecodeStore(data []byte) (*Store, error) {
	r := byteReader{buf: data}
	s := &Store{recordPaths: r.flag("path-recording"), piece: hopPiece}
	s.TimeExceeded = r.i64()
	s.EchoReplies = r.i64()
	s.TCPRsts = r.i64()
	s.Unparseable = r.i64()
	s.Rewritten = r.i64()
	s.DestUnreachByCode = make(map[uint8]int64)
	r.codes(func(code uint8, n int64) { s.DestUnreachByCode[code] = n })

	// Ascending order makes every entry distinct, so the lists are the
	// canonical index as they stand; the table is sized for both before
	// either is filed in it, and interface i gets id i.
	nIfaces := r.count(16)
	keys := make([]ipv6.U128, nIfaces)
	for i := range keys {
		keys[i] = r.key()
		if i > 0 && keys[i-1].Cmp(keys[i]) >= 0 {
			r.fail("interface %d out of order", i)
		}
	}
	nTraces := r.count(16 + 1 + 4 + 4)
	if nTraces > 0 && !s.recordPaths {
		r.fail("%d traces in a path-less store", nTraces)
	}
	if r.err != nil {
		return nil, r.err
	}
	s.tab = ipv6.NewTable(nIfaces + nTraces)
	s.ifaceIdx = make([]uint32, nIfaces)
	for i, k := range keys {
		id, w := s.tab.InternHashed(ipv6.Hash(k))
		*w |= ifaceBit
		s.ifaceIdx[i] = id
	}
	s.ifacesSorted = nIfaces

	s.traceIdx = make([]uint32, 0, nTraces)
	var prev ipv6.U128
	for i := 0; i < nTraces && r.err == nil; i++ {
		target := r.key()
		if i > 0 && prev.Cmp(target) >= 0 {
			r.fail("trace %d out of order", i)
			break
		}
		prev = target
		_, w := s.tab.InternHashed(ipv6.Hash(target))
		t := s.row(s.traceAt(w, target))
		t.Reached = r.flag("reached")
		// Hop addresses are interned like the ones Add files, interfaces
		// or not: a hop outside the interface list still decodes.
		nHops := r.count(17)
		s.reserve(t, nHops)
		for j, last := 0, -1; j < nHops && r.err == nil; j++ {
			ttl, k := r.u8(), r.key()
			if int(ttl) <= last {
				r.fail("trace %d: hop %d out of order", i, j)
			}
			last = int(ttl)
			id, _ := s.tab.InternHashed(ipv6.Hash(k))
			s.addHop(t, ttl, id)
		}
		// Codes arrive ascending: each entry chains to the next one.
		r.codes(func(code uint8, n int64) {
			s.unreach = sorted.Append(s.unreach, unreachEntry{n: n, code: code})
			if id := uint32(len(s.unreach)); t.unreach == 0 {
				t.unreach = id
			} else {
				s.unreach[id-2].next = id
			}
		})
	}
	s.tracesSorted = len(s.traceIdx)
	if err := r.done(); err != nil {
		return nil, err
	}
	return s, nil
}

func appendU32(buf []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(buf, v)
}

func appendI64(buf []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(buf, uint64(v))
}

// appendKey appends an address key as its 16 address bytes.
func appendKey(buf []byte, k ipv6.U128) []byte {
	return binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(buf, k.Hi), k.Lo)
}

// byteReader is a bounds-checked cursor over an untrusted encoding. The
// first failed read or check sticks in err and every later read returns
// zero, so the decoder reads its layout straight through — the mirror of
// the encoder — and asks done once.
type byteReader struct {
	buf []byte
	off int
	err error
}

// fail records a decode error unless an earlier one already stands.
func (r *byteReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{ErrStoreDecode}, args...)...)
	}
}

// take returns the next n bytes, or nil once the input has run short.
func (r *byteReader) take(n int) []byte {
	if len(r.buf)-r.off < n {
		r.fail("truncated at offset %d (need %d bytes)", r.off, n)
	}
	if r.err != nil {
		return nil
	}
	r.off += n
	return r.buf[r.off-n : r.off]
}

func (r *byteReader) u8() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

// flag reads a byte the encoder writes as 0 or 1.
func (r *byteReader) flag(what string) bool {
	b := r.u8()
	if b > 1 {
		r.fail("%s flag %d at offset %d", what, b, r.off-1)
	}
	return b == 1
}

func (r *byteReader) u32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *byteReader) i64() int64 {
	if b := r.take(8); b != nil {
		return int64(binary.LittleEndian.Uint64(b))
	}
	return 0
}

// count reads a length prefix and rejects values that could not
// possibly fit in the remaining input (each element needs at least
// elemMin bytes), so corrupt lengths fail fast instead of driving huge
// allocations.
func (r *byteReader) count(elemMin int) int {
	v := r.u32()
	if int64(v)*int64(elemMin) > int64(len(r.buf)-r.off) {
		r.fail("implausible count %d at offset %d", v, r.off)
	}
	if r.err != nil {
		return 0
	}
	return int(v)
}

// key reads an address as its key.
func (r *byteReader) key() ipv6.U128 {
	if b := r.take(16); b != nil {
		return ipv6.U128{Hi: binary.BigEndian.Uint64(b), Lo: binary.BigEndian.Uint64(b[8:])}
	}
	return ipv6.U128{}
}

// codes reads a counted (code, count) list, strictly ascending by code,
// every count positive: Add and Merge never file a code without a reply
// carrying it.
func (r *byteReader) codes(set func(code uint8, n int64)) {
	prev := -1
	for n := r.count(9); n > 0 && r.err == nil; n-- {
		code, v := r.u8(), r.i64()
		if int(code) <= prev {
			r.fail("code %d out of order at offset %d", code, r.off-9)
		}
		if v <= 0 {
			r.fail("code %d count %d at offset %d", code, v, r.off-8)
		}
		if r.err == nil {
			set(code, v)
		}
		prev = int(code)
	}
}

// done closes a decode: the first error met, or a complaint about bytes
// left over behind the layout.
func (r *byteReader) done() error {
	if r.off != len(r.buf) {
		r.fail("%d trailing bytes", len(r.buf)-r.off)
	}
	return r.err
}
