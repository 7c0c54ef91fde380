package probe

import (
	"errors"
	"net/netip"
	"testing"
	"time"
)

func storeFixture(recordPaths bool) *Store {
	s := NewStore(recordPaths)
	targets := []netip.Addr{
		netip.MustParseAddr("2001:db8:1::1"),
		netip.MustParseAddr("2001:db8:2::1"),
		netip.MustParseAddr("2001:db8:3::1"),
	}
	hop := func(i int) netip.Addr {
		a := netip.MustParseAddr("2001:db8:ff::1").As16()
		a[14] = byte(i)
		return netip.AddrFrom16(a)
	}
	n := 0
	for ti, target := range targets {
		for ttl := 1; ttl <= 4+ti; ttl++ {
			n++
			s.Add(Reply{
				At:     time.Duration(n) * time.Millisecond,
				From:   hop(ti*8 + ttl),
				Target: target,
				Kind:   KindTimeExceeded,
				TTL:    uint8(ttl),
			})
		}
	}
	s.Add(Reply{From: targets[0], Target: targets[0], Kind: KindEchoReply, TTL: 9})
	s.Add(Reply{From: hop(60), Target: targets[1], Kind: KindDestUnreach, Code: 1, TTL: 7})
	s.Add(Reply{From: targets[2], Target: targets[2], Kind: KindDestUnreach, Code: 4, TTL: 8})
	s.Add(Reply{Kind: KindOther})
	s.Rewritten++
	return s
}

func TestStoreCodecRoundTrip(t *testing.T) {
	for _, recordPaths := range []bool{true, false} {
		s := storeFixture(recordPaths)
		enc := s.AppendBinary(nil)
		got, err := DecodeStore(enc)
		if err != nil {
			t.Fatalf("recordPaths=%v: decode: %v", recordPaths, err)
		}
		if !got.Equal(s) {
			t.Fatalf("recordPaths=%v: round-tripped store differs", recordPaths)
		}
		// Canonical form: re-encoding the decoded store reproduces the
		// original bytes exactly.
		enc2 := got.AppendBinary(nil)
		if string(enc) != string(enc2) {
			t.Fatalf("recordPaths=%v: re-encoding differs", recordPaths)
		}
	}
}

func TestStoreCodecEmpty(t *testing.T) {
	s := NewStore(true)
	got, err := DecodeStore(s.AppendBinary(nil))
	if err != nil {
		t.Fatalf("decode empty: %v", err)
	}
	if !got.Equal(s) {
		t.Fatal("empty store round-trip differs")
	}
}

func TestStoreCodecRejectsMalformed(t *testing.T) {
	enc := storeFixture(true).AppendBinary(nil)
	// Every truncation fails with the typed error and never panics.
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeStore(enc[:cut]); !errors.Is(err, ErrStoreDecode) {
			t.Fatalf("truncation at %d: got %v, want ErrStoreDecode", cut, err)
		}
	}
	if _, err := DecodeStore(append(append([]byte(nil), enc...), 0)); !errors.Is(err, ErrStoreDecode) {
		t.Fatalf("trailing byte: got %v, want ErrStoreDecode", err)
	}
	// A corrupt length prefix must fail fast rather than allocate.
	bad := append([]byte(nil), enc...)
	bad[41] = 0xff // low byte of the DestUnreachByCode count
	if _, err := DecodeStore(bad); !errors.Is(err, ErrStoreDecode) {
		t.Fatalf("corrupt count: got %v, want ErrStoreDecode", err)
	}
}

// rawStore spells out a store encoding field by field, in whatever order
// and with whatever flag bytes a test wants — the malformed blobs
// AppendBinary can never produce.
type rawStore struct {
	flag   byte
	codes  []rawCode
	ifaces []netip.Addr
	traces []rawTrace
}

type rawCode struct {
	code uint8
	n    int64
}

type rawTrace struct {
	target  netip.Addr
	reached byte
	hops    []HopEntry
	codes   []rawCode
}

func (r rawStore) encode() []byte {
	buf := []byte{r.flag}
	for i := int64(1); i <= 5; i++ {
		buf = appendI64(buf, i)
	}
	appendCodes := func(codes []rawCode) {
		buf = appendU32(buf, uint32(len(codes)))
		for _, c := range codes {
			buf = appendI64(append(buf, c.code), c.n)
		}
	}
	appendAddr := func(a netip.Addr) {
		a16 := a.As16()
		buf = append(buf, a16[:]...)
	}
	appendCodes(r.codes)
	buf = appendU32(buf, uint32(len(r.ifaces)))
	for _, a := range r.ifaces {
		appendAddr(a)
	}
	buf = appendU32(buf, uint32(len(r.traces)))
	for _, t := range r.traces {
		appendAddr(t.target)
		buf = append(buf, t.reached)
		buf = appendU32(buf, uint32(len(t.hops)))
		for _, h := range t.hops {
			buf = append(buf, h.TTL)
			appendAddr(h.Addr)
		}
		appendCodes(t.codes)
	}
	return buf
}

// TestDecodeStoreAcceptsOnlyCanonical: DecodeStore takes exactly what
// AppendBinary writes. A canonical blob round-trips byte for byte and
// arrives with its indexes marked sorted; the same blob with two entries
// swapped, one repeated, or a list descending — interfaces, traces, hop
// TTLs, either code list — or with a flag byte other than 0 or 1, or with
// traces in a path-less store, fails with ErrStoreDecode.
func TestDecodeStoreAcceptsOnlyCanonical(t *testing.T) {
	a := func(s string) netip.Addr { return netip.MustParseAddr(s) }
	canonical := func() rawStore {
		return rawStore{
			flag:   1,
			codes:  []rawCode{{1, 7}, {4, 2}},
			ifaces: []netip.Addr{a("2001:db8::1"), a("2001:db8::2"), a("2001:db8:1::")},
			traces: []rawTrace{
				{target: a("2001:db8:a::1"), reached: 1,
					hops:  []HopEntry{{1, a("2001:db8::1")}, {3, a("2001:db8::2")}, {17, a("2001:db8:1::")}},
					codes: []rawCode{{1, 1}, {4, 1}}},
				{target: a("2001:db8:a::2")},
				{target: a("2001:db8:b::"), hops: []HopEntry{{2, a("2001:db8::9")}}},
			},
		}
	}
	enc := canonical().encode()
	s, err := DecodeStore(enc)
	if err != nil {
		t.Fatalf("canonical blob: %v", err)
	}
	if s.ifacesSorted != 3 || s.tracesSorted != 3 {
		t.Fatalf("decoded indexes sorted up to %d/%d, want 3/3", s.ifacesSorted, s.tracesSorted)
	}
	if got := s.AppendBinary(nil); string(got) != string(enc) {
		t.Fatalf("canonical blob re-encodes differently:\n got %x\nwant %x", got, enc)
	}
	if !s.AddrSeen(a("2001:db8::2")) || s.AddrSeen(a("2001:db8::9")) || s.Trace(a("2001:db8:a::1")).PathLength() != 17 {
		t.Fatal("decoded store answers wrongly")
	}

	cases := map[string]func(r *rawStore){
		"interfaces swapped":    func(r *rawStore) { r.ifaces[0], r.ifaces[1] = r.ifaces[1], r.ifaces[0] },
		"interface repeated":    func(r *rawStore) { r.ifaces[1] = r.ifaces[0] },
		"interfaces descending": func(r *rawStore) { r.ifaces[0], r.ifaces[2] = r.ifaces[2], r.ifaces[0] },
		"traces swapped":        func(r *rawStore) { r.traces[1], r.traces[2] = r.traces[2], r.traces[1] },
		"trace repeated":        func(r *rawStore) { r.traces[1].target = r.traces[0].target },
		"traces descending":     func(r *rawStore) { r.traces[0], r.traces[2] = r.traces[2], r.traces[0] },
		"hops swapped":          func(r *rawStore) { h := r.traces[0].hops; h[0], h[1] = h[1], h[0] },
		"hop TTL repeated":      func(r *rawStore) { r.traces[0].hops[1].TTL = 1 },
		"hops descending":       func(r *rawStore) { h := r.traces[0].hops; h[0], h[2] = h[2], h[0] },
		"codes swapped":         func(r *rawStore) { r.codes[0], r.codes[1] = r.codes[1], r.codes[0] },
		"code repeated":         func(r *rawStore) { r.codes[1].code = 1 },
		"trace codes swapped":   func(r *rawStore) { c := r.traces[0].codes; c[0], c[1] = c[1], c[0] },
		"trace code repeated":   func(r *rawStore) { r.traces[0].codes[1].code = 1 },
		"path flag 2":           func(r *rawStore) { r.flag = 2 },
		"reached flag 2":        func(r *rawStore) { r.traces[0].reached = 2 },
		"traces without paths":  func(r *rawStore) { r.flag = 0 },
	}
	for name, mutate := range cases {
		r := canonical()
		mutate(&r)
		if _, err := DecodeStore(r.encode()); !errors.Is(err, ErrStoreDecode) {
			t.Errorf("%s: got %v, want ErrStoreDecode", name, err)
		}
	}
}

// nonPositiveCounts is a canonical store blob but for its
// destination-unreachable counts — zero at store level, negative on a
// trace — which no Add or Merge can produce.
func nonPositiveCounts() rawStore {
	a := netip.MustParseAddr
	return rawStore{
		flag:   1,
		codes:  []rawCode{{1, 0}, {4, 2}},
		ifaces: []netip.Addr{a("2001:db8::1")},
		traces: []rawTrace{{target: a("2001:db8:a::1"),
			hops:  []HopEntry{{1, a("2001:db8::1")}},
			codes: []rawCode{{1, -3}, {4, 1}}}},
	}
}

// TestDecodeStoreRejectsNonPositiveCounts: a destination-unreachable
// count of zero or below, in the store's counts or in a trace's, fails
// with ErrStoreDecode — the blob would otherwise decode and re-encode
// unchanged into a store no campaign can reach.
func TestDecodeStoreRejectsNonPositiveCounts(t *testing.T) {
	cases := map[string]func(r *rawStore){
		"store count zero":     func(r *rawStore) { r.traces[0].codes[0].n = 1 },
		"store count negative": func(r *rawStore) { r.codes[0].n, r.traces[0].codes[0].n = -1, 1 },
		"trace count negative": func(r *rawStore) { r.codes[0].n = 7 },
		"trace count zero":     func(r *rawStore) { r.codes[0].n, r.traces[0].codes[1].n = 7, 0 },
	}
	for name, mutate := range cases {
		r := nonPositiveCounts()
		mutate(&r)
		if _, err := DecodeStore(r.encode()); !errors.Is(err, ErrStoreDecode) {
			t.Errorf("%s: got %v, want ErrStoreDecode", name, err)
		}
	}
	r := nonPositiveCounts()
	r.codes[0].n, r.traces[0].codes[0].n = 7, 1
	if _, err := DecodeStore(r.encode()); err != nil {
		t.Fatalf("all counts positive: %v", err)
	}
}
