package probe

import (
	"bytes"
	"math/rand"
	"net/netip"
	"runtime"
	"slices"
	"testing"

	"beholder/internal/ipv6"
)

func teReplyAt(target netip.Addr, from netip.Addr, ttl uint8) Reply {
	return Reply{Kind: KindTimeExceeded, From: from, Target: target, TTL: ttl, StateRecovered: true}
}

func addrN(n int) netip.Addr {
	return ipv6.U128{Hi: 0x2400_0000_0000_0000, Lo: uint64(n)}.Addr()
}

// hopsOf reads t's hops through the accessor, addresses resolved.
func hopsOf(s *Store, t *Trace) []HopEntry {
	var out []HopEntry
	s.ForEachHop(t, func(ttl uint8, id uint32) {
		out = append(out, HopEntry{TTL: ttl, Addr: s.AddrTable().Addr(id)})
	})
	return out
}

func TestTraceTTLBitmap(t *testing.T) {
	s := NewStore(true)
	target := addrN(1)
	s.Add(teReplyAt(target, addrN(100), 3))
	s.Add(teReplyAt(target, addrN(101), 3)) // duplicate TTL: first answer wins
	s.Add(teReplyAt(target, addrN(102), 7))
	tr := s.Trace(target)
	if !tr.HasTTL(3) || !tr.HasTTL(7) || tr.HasTTL(4) {
		t.Fatalf("bitmap wrong: %v", tr.seen)
	}
	hops := hopsOf(s, tr)
	if len(hops) != 2 {
		t.Fatalf("hops = %d want 2 (duplicate TTL must not append)", len(hops))
	}
	if hops[0].Addr != addrN(100) {
		t.Fatal("duplicate TTL displaced the first answer")
	}
	if tr.PathLength() != 7 {
		t.Fatalf("path length %d want 7", tr.PathLength())
	}
	// High TTLs exercise the upper bitmap words.
	s.Add(teReplyAt(target, addrN(103), 200))
	if !tr.HasTTL(200) || tr.PathLength() != 200 {
		t.Fatalf("high TTL: has=%v len=%d", tr.HasTTL(200), tr.PathLength())
	}
}

func TestStoreAddrSeen(t *testing.T) {
	s := NewStore(false)
	s.Add(teReplyAt(addrN(1), addrN(50), 2))
	if !s.AddrSeen(addrN(50)) {
		t.Error("discovered interface not reported by AddrSeen")
	}
	if s.AddrSeen(addrN(51)) {
		t.Error("unseen address reported seen")
	}
	n := 0
	s.ForEachInterface(func(netip.Addr) { n++ })
	if n != s.NumInterfaces() {
		t.Errorf("ForEachInterface visited %d of %d", n, s.NumInterfaces())
	}
}

// synthReplies builds a deterministic stream of mixed replies.
func synthReplies(n int, seed int64) []Reply {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Reply, n)
	for i := range out {
		target := addrN(rng.Intn(40))
		switch rng.Intn(5) {
		case 0:
			out[i] = Reply{Kind: KindEchoReply, From: target, Target: target, StateRecovered: true}
		case 1:
			out[i] = Reply{Kind: KindDestUnreach, Code: uint8(rng.Intn(5)), From: addrN(1000 + rng.Intn(20)), Target: target}
		default:
			out[i] = teReplyAt(target, addrN(100+rng.Intn(60)), uint8(1+rng.Intn(16)))
		}
	}
	return out
}

// TestMergeMatchesSerialAdd: splitting a reply stream into contiguous
// slices, folding each into its own store, and merging in order must
// equal adding every reply to one store.
func TestMergeMatchesSerialAdd(t *testing.T) {
	replies := synthReplies(500, 42)
	serial := NewStore(true)
	for _, r := range replies {
		serial.Add(r)
	}
	for _, shards := range []int{1, 2, 3, 7} {
		parts := make([]*Store, shards)
		for s := range parts {
			parts[s] = NewStore(true)
			lo, hi := len(replies)*s/shards, len(replies)*(s+1)/shards
			for _, r := range replies[lo:hi] {
				parts[s].Add(r)
			}
		}
		merged := NewStore(true)
		for _, p := range parts {
			merged.Merge(p)
		}
		if !merged.Equal(serial) {
			t.Fatalf("%d-way merge differs from serial add", shards)
		}
	}
}

// TestMergeOrderInsensitiveForDisjointSlices: shard stores from disjoint
// (target, TTL) slices merge to the same result in any order — the
// property the campaign engine's determinism rests on.
func TestMergeOrderInsensitiveForDisjointSlices(t *testing.T) {
	// Disjoint by TTL band per shard.
	mk := func(band uint8) *Store {
		s := NewStore(true)
		for i := 0; i < 30; i++ {
			s.Add(teReplyAt(addrN(i%10), addrN(200+int(band)*30+i), band*4+uint8(i%4)+1))
		}
		return s
	}
	a, b, c := mk(0), mk(1), mk(2)
	m1 := NewStore(true)
	m1.Merge(a)
	m1.Merge(b)
	m1.Merge(c)
	m2 := NewStore(true)
	m2.Merge(c)
	m2.Merge(a)
	m2.Merge(b)
	if !m1.Equal(m2) {
		t.Fatal("merge of disjoint slices is order-sensitive")
	}
}

func TestStoreEqualDetectsDifferences(t *testing.T) {
	a, b := NewStore(true), NewStore(true)
	r := teReplyAt(addrN(1), addrN(2), 3)
	a.Add(r)
	if a.Equal(b) {
		t.Fatal("unequal stores reported equal")
	}
	b.Add(r)
	if !a.Equal(b) {
		t.Fatal("equal stores reported unequal")
	}
	b.Add(Reply{Kind: KindEchoReply, From: addrN(1), Target: addrN(1)})
	if a.Equal(b) {
		t.Fatal("Reached/counter difference missed")
	}
}

// TestStoreSelfMergeAndForeignAddresses: merging a store into itself
// changes nothing, and neither does another consumer interning addresses
// of its own through the store's table — they carry a zero word, so the
// store's counts, lookups, equality and encoding ignore them and
// ForEachAddr reports them as neither interface nor trace. A store sized
// up front holds exactly what an unsized one does.
func TestStoreSelfMergeAndForeignAddresses(t *testing.T) {
	replies := synthReplies(800, 7)
	s, sized := NewStore(true), NewStoreSized(true, 4096, hopPiece)
	for _, r := range replies {
		s.Add(r)
		sized.Add(r)
	}
	want := s.AppendBinary(nil)
	if !sized.Equal(s) || !bytes.Equal(sized.AppendBinary(nil), want) {
		t.Fatal("a sized store differs from an unsized one")
	}
	if slots := sized.AddrTable().Slots(); slots != NewStoreSized(true, 4096, hopPiece).AddrTable().Slots() {
		t.Fatalf("a table sized for 4096 addresses grew to %d slots under %d", slots, sized.AddrTable().Len())
	}

	s.Merge(s)
	if !s.Equal(sized) || !bytes.Equal(s.AppendBinary(nil), want) {
		t.Fatal("merging a store into itself changed it")
	}

	nIfaces, nTraces, nAddrs := s.NumInterfaces(), s.NumTraces(), s.AddrTable().Len()
	for i := 0; i < 500; i++ { // enough to force the table to grow
		s.AddrTable().Intern(addrN(50_000 + i))
	}
	if s.NumInterfaces() != nIfaces || len(s.Interfaces()) != nIfaces || s.NumTraces() != nTraces ||
		s.AddrSeen(addrN(50_001)) || s.Trace(addrN(50_001)) != nil {
		t.Fatal("addresses interned by another consumer show up in the store's results")
	}
	if !s.Equal(sized) || !sized.Equal(s) || !bytes.Equal(s.AppendBinary(nil), want) {
		t.Fatal("addresses interned by another consumer changed the store")
	}
	var ifaces, traces, foreign int
	s.ForEachAddr(func(id uint32, iface bool, tr *Trace) {
		switch {
		case iface || tr != nil:
			if iface {
				ifaces++
			}
			if tr != nil {
				traces++
			}
		case int(id) >= nAddrs:
			foreign++
		}
	})
	if ifaces != nIfaces || traces != nTraces || foreign != 500 {
		t.Fatalf("ForEachAddr saw %d interfaces, %d traces, %d foreign addresses; want %d, %d, 500", ifaces, traces, foreign, nIfaces, nTraces)
	}
}

// TestHopFootprint bounds the bytes a stored hop costs. 1 024 traces ×
// 16 TTLs are filed through Add into a store sized up front, every trace
// reusing the same 16 hop addresses, so the table never grows and all the
// fill allocates is trace slabs, hop slabs and the trace index. A hop is
// 8 bytes — a TTL and a table id — so the fill costs about 15 bytes per
// hop (8 of hop slab, 6 of trace slab, 1 of index); a 32-byte hop holding
// its address would cost about 40.
func TestHopFootprint(t *testing.T) {
	const traces, ttls = 1024, 16
	replies := make([]Reply, 0, traces*ttls)
	for i := 0; i < traces; i++ {
		for ttl := 1; ttl <= ttls; ttl++ {
			replies = append(replies, teReplyAt(addrN(10_000+i), addrN(ttl), uint8(ttl)))
		}
	}
	s := NewStoreSized(true, traces+ttls, hopPiece)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, r := range replies {
		s.Add(r)
	}
	runtime.ReadMemStats(&after)
	if s.NumTraces() != traces || s.NumInterfaces() != ttls || s.Trace(addrN(10_000)).PathLength() != ttls {
		t.Fatalf("fill stored %d traces, %d interfaces", s.NumTraces(), s.NumInterfaces())
	}
	perHop := float64(after.TotalAlloc-before.TotalAlloc) / (traces * ttls)
	t.Logf("%.1f bytes allocated per stored hop", perHop)
	if perHop > 20 {
		t.Fatalf("%.1f bytes allocated per stored hop, want <= 20", perHop)
	}
}

// raceEnabled is set by race_test.go in -race builds, whose
// instrumentation changes what allocation pins measure.
var raceEnabled bool

// TestUnreachAddAllocs: a trace's destination-unreachable counts are
// entries in a store-level slab, not a map per trace. Filing one on each
// of 4 096 existing traces allocates only the slab's doublings, and
// merging a store whose traces carry counts into a store holding the
// same traces — half of them with counts of their own — allocates a
// fixed handful of times (the id arrays and one slab growth), however
// many traces there are. A map per trace cost at least one allocation
// per trace on both paths.
func TestUnreachAddAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not representative under -race")
	}
	const traces = 4096
	target := func(i int) netip.Addr { return addrN(10_000 + i) }
	unreach := func(i int, code uint8) Reply {
		return Reply{Kind: KindDestUnreach, Code: code, From: addrN(2), Target: target(i)}
	}
	fill := func() *Store {
		s := NewStoreSized(true, 2*traces, hopPiece)
		for i := 0; i < traces; i++ {
			s.Add(teReplyAt(target(i), addrN(1), 1))
		}
		return s
	}

	s := fill()
	if n := mallocs(func() {
		for i := 0; i < traces; i++ {
			s.Add(unreach(i, uint8(i%3)))
		}
	}); float64(n)/traces > 0.01 {
		t.Errorf("%d Adds of a first unreachable code allocated %d times, want < 0.01 per Add", traces, n)
	}

	dst, src := fill(), fill()
	for i := 0; i < traces; i++ {
		if i%2 == 0 {
			dst.Add(unreach(i, 3))
		}
		src.Add(unreach(i, 1))
		src.Add(unreach(i, 3))
		src.Add(unreach(i, 6))
	}
	if n := mallocs(func() { dst.Merge(src) }); n > 8 {
		t.Errorf("merging %d traces' unreachable counts allocated %d times, want <= 8", traces, n)
	}
	for i, want := range map[int][]int64{7: {1, 1, 3, 1, 6, 1}, 8: {1, 1, 3, 2, 6, 1}} {
		var got []int64
		dst.ForEachUnreach(dst.Trace(target(i)), func(code uint8, n int64) { got = append(got, int64(code), n) })
		if !slices.Equal(got, want) {
			t.Fatalf("trace %d merged to (code, count) pairs %v, want %v", i, got, want)
		}
	}
}

// TestTraceFootprint bounds what a stored trace costs on its own: 4 096
// targets each answered once (one hop, TTL 1, through one of 16 routers)
// into a store whose table is sized up front, so what is allocated is
// the trace rows (64 bytes, in 4 096-byte slabs), the hop arena's
// pieces, and the canonical index's trace numbers: 221 bytes a trace,
// 128 of them the 16-hop piece.
func TestTraceFootprint(t *testing.T) {
	const traces, routers = 4096, 16
	replies := make([]Reply, traces)
	for i := range replies {
		replies[i] = teReplyAt(addrN(10_000+i), addrN(i%routers), 1)
	}
	s := NewStoreSized(true, traces+routers, hopPiece)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, r := range replies {
		s.Add(r)
	}
	runtime.ReadMemStats(&after)
	if s.NumTraces() != traces || s.NumInterfaces() != routers {
		t.Fatalf("fill stored %d traces, %d interfaces", s.NumTraces(), s.NumInterfaces())
	}
	perTrace := float64(after.TotalAlloc-before.TotalAlloc) / traces
	t.Logf("%.1f bytes allocated per stored trace", perTrace)
	if perTrace > 232 {
		t.Fatalf("%.1f bytes allocated per stored trace, want <= 232", perTrace)
	}
}
