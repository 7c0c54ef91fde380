package probe

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"testing"

	"beholder/internal/ipv6"
)

// foldPoolAddr is address i of a reply pool: spread over both words, so
// table positions vary while repeats stay frequent.
func foldPoolAddr(i int) netip.Addr {
	return ipv6.U128{Hi: 0x2001_0db8_0000_0000 | uint64(i%7)<<20, Lo: uint64(i+1) * 0x9e3779b97f4a7c15}.Addr()
}

// foldReply decodes one reply from two bytes and two pool indices:
// every kind (KindOther included), unreachable codes 0–7, unrecovered
// state, rewritten targets, TTLs 0–19 — so duplicate TTLs and zero TTLs
// both occur — and, for a negative target index, an invalid target.
func foldReply(flags, ttl byte, from, target int) Reply {
	r := Reply{
		Kind:            ReplyKind(flags & 7 % 5),
		Code:            flags >> 3 & 7,
		StateRecovered:  flags&0x40 == 0,
		TargetRewritten: flags&0x80 != 0 && ttl&1 != 0,
		From:            foldPoolAddr(from),
		TTL:             ttl % 20,
		At:              1,
	}
	if target >= 0 {
		r.Target = foldPoolAddr(target)
	}
	return r
}

// foldReplies decodes data into a reply sequence over a pool of pool
// addresses, four bytes a reply: flags, source, target (0xff: none), TTL.
func foldReplies(data []byte, pool int) []Reply {
	rs := make([]Reply, 0, len(data)/4)
	for ; len(data) >= 4; data = data[4:] {
		target := -1
		if data[2] != 0xff {
			target = int(data[2]) % pool
		}
		rs = append(rs, foldReply(data[0], data[3], int(data[1])%pool, target))
	}
	return rs
}

// randomFoldReplies draws n replies over a pool of pool addresses. Runs
// of one target (fill follow-ups) make the memo hit; the rest is random.
func randomFoldReplies(rng *rand.Rand, n, pool int) []Reply {
	rs := make([]Reply, n)
	for i := range rs {
		target := rng.Intn(pool)
		switch {
		case i > 0 && rng.Intn(4) == 0:
			rs[i] = foldReply(byte(rng.Intn(256)), byte(rng.Intn(256)), rng.Intn(pool), 0)
			rs[i].Target = rs[i-1].Target
			continue
		case rng.Intn(50) == 0:
			target = -1
		}
		rs[i] = foldReply(byte(rng.Intn(256)), byte(rng.Intn(256)), rng.Intn(pool), target)
	}
	return rs
}

// addrEntry is one id of a store's table: its address, whether it is an
// interface, and the target of its trace (zero without one).
type addrEntry struct {
	addr, target netip.Addr
	iface        bool
}

// addrOrder lists a store's table in id order.
func addrOrder(s *Store) []addrEntry {
	var out []addrEntry
	s.ForEachAddr(func(id uint32, iface bool, t *Trace) {
		e := addrEntry{addr: s.AddrTable().Addr(id), iface: iface}
		if t != nil {
			e.target = t.Target()
		}
		out = append(out, e)
	})
	return out
}

// foldPerReply folds rs with Add and returns the store and each reply's
// new-interface verdict.
func foldPerReply(rs []Reply, recordPaths bool) (*Store, []bool) {
	s := NewStore(recordPaths)
	var news []bool
	for _, r := range rs {
		news = append(news, s.Add(r))
	}
	return s, news
}

// foldInBlocks folds rs block by block — Gather, then AddGathered in
// order — with one scratch for the whole sequence.
func foldInBlocks(rs []Reply, recordPaths bool, block int) (*Store, []bool) {
	s := NewStore(recordPaths)
	var g Gathered
	var news []bool
	for lo := 0; lo < len(rs); lo += block {
		b := rs[lo:min(lo+block, len(rs))]
		s.Gather(b, &g)
		for i := range b {
			news = append(news, s.AddGathered(&g, i))
		}
	}
	return s, news
}

// sameStore fails unless got and want encode to the same bytes, are
// Equal, and hand out the same ids in the same order.
func sameStore(t *testing.T, label string, got, want *Store) {
	t.Helper()
	if !bytes.Equal(got.AppendBinary(nil), want.AppendBinary(nil)) {
		t.Fatalf("%s: encodings differ", label)
	}
	if !got.Equal(want) {
		t.Fatalf("%s: stores not Equal", label)
	}
	if g, w := addrOrder(got), addrOrder(want); !slices.Equal(g, w) {
		t.Fatalf("%s: id order differs:\n got %v\nwant %v", label, g, w)
	}
}

// checkFoldBlock holds the block fold of rs to per-reply Add, in every
// block length and both path-recording modes.
func checkFoldBlock(t *testing.T, label string, rs []Reply) {
	t.Helper()
	for _, recordPaths := range []bool{true, false} {
		want, wantNew := foldPerReply(rs, recordPaths)
		for _, block := range []int{1, 7, 64, 256} {
			l := fmt.Sprintf("%s paths=%v block=%d", label, recordPaths, block)
			got, gotNew := foldInBlocks(rs, recordPaths, block)
			sameStore(t, l, got, want)
			if !slices.Equal(gotNew, wantNew) {
				t.Fatalf("%s: new-interface verdicts differ", l)
			}
		}
	}
}

// referenceMerge is Merge's address pass as it was before the pass was
// gathered: one src address at a time, through its netip form. The
// gathered Merge must match it byte for byte and id for id.
func referenceMerge(s, src *Store) {
	if s == src {
		return
	}
	s.TimeExceeded += src.TimeExceeded
	s.EchoReplies += src.EchoReplies
	s.TCPRsts += src.TCPRsts
	s.Unparseable += src.Unparseable
	s.Rewritten += src.Rewritten
	for code, n := range src.DestUnreachByCode {
		s.DestUnreachByCode[code] += n
	}
	remap := make([]uint32, src.tab.Len())
	var into []uint32
	if s.recordPaths {
		into = make([]uint32, len(src.traceIdx))
	}
	for id := range remap {
		w := src.tab.Word(uint32(id))
		n := w & traceMask
		if !s.recordPaths {
			n = 0
		}
		if w&ifaceBit == 0 && n == 0 {
			continue
		}
		a := src.tab.Addr(uint32(id))
		sid, sw := s.tab.Intern(a)
		remap[id] = sid + 1
		if w&ifaceBit != 0 {
			s.markInterface(sw, sid)
		}
		if n != 0 {
			into[n-1] = s.traceAt(sw, ipv6.FromAddr(a))
		}
	}
	for n, sn := range into {
		st, t := src.row(uint32(n)), s.row(sn)
		s.reserve(t, int(t.nHops)+int(st.nHops))
		for _, h := range src.hopsOf(st) {
			if t.HasTTL(h.ttl) {
				continue
			}
			if remap[h.id] == 0 {
				sid, _ := s.tab.Intern(src.tab.Addr(h.id))
				remap[h.id] = sid + 1
			}
			s.addHop(t, h.ttl, remap[h.id]-1)
		}
		t.Reached = t.Reached || st.Reached
		src.ForEachUnreach(st, func(code uint8, n int64) { s.addUnreach(t, code, n) })
	}
}

// checkMerge merges rs's stores — split in three overlapping parts, and
// one of them decoded from its encoding — into an empty and a non-empty
// store, gathered and by the reference, and compares the results.
func checkMerge(t *testing.T, label string, rs []Reply) {
	t.Helper()
	for _, recordPaths := range []bool{true, false} {
		a, _ := foldPerReply(rs[:len(rs)/2], recordPaths)
		b, _ := foldPerReply(rs[len(rs)/3:], recordPaths)
		c, err := DecodeStore(b.AppendBinary(nil))
		if err != nil {
			t.Fatal(err)
		}
		for _, start := range [][]Reply{nil, rs[len(rs)/4 : len(rs)/3]} {
			got, _ := foldPerReply(start, recordPaths)
			want, _ := foldPerReply(start, recordPaths)
			for _, src := range []*Store{a, b, c} {
				got.Merge(src)
				referenceMerge(want, src)
			}
			sameStore(t, fmt.Sprintf("%s merge paths=%v start=%d", label, recordPaths, len(start)), got, want)
		}
	}
}

// TestFoldBlockMatchesAdd holds the gathered block fold to per-reply
// Add — encoding, Equal, id order and the new-interface verdict of every
// reply — and the gathered Merge to the per-address reference. Pools of
// 40 addresses make repeated targets, memo hits and duplicate TTLs
// common; pools of 3 000 grow the table inside blocks and give Merge
// several chunks.
func TestFoldBlockMatchesAdd(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		pool := 40
		if trial%3 == 2 {
			pool = 3000
		}
		rs := randomFoldReplies(rng, 200+rng.Intn(4000), pool)
		label := fmt.Sprintf("trial %d pool %d", trial, pool)
		checkFoldBlock(t, label, rs)
		checkMerge(t, label, rs)
	}
}

// FuzzFoldBlock decodes the input into a reply sequence over a small
// pool, four bytes a reply (foldReply), and holds its block fold and
// Merge to per-reply Add and the reference merge.
func FuzzFoldBlock(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 9, 70, 128} {
		seed := make([]byte, 4*n)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Add(bytes.Repeat([]byte{0, 3, 5, 7}, 40))       // one Time Exceeded, repeated
	f.Add(bytes.Repeat([]byte{0x19, 2, 0xff, 0}, 20)) // unreachables without a target
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4*128 {
			return
		}
		rs := foldReplies(data, 24)
		checkFoldBlock(t, "fuzz", rs)
		checkMerge(t, "fuzz", rs)
	})
}

// wideSerialReplies draws replies shaped like a wide serial campaign's:
// targets × 16 TTLs in permuted order, from sources that fan out with
// the TTL — a handful near the vantage, thousands per TTL past hop 12 —
// about 60 k sources in all for 65 536 targets.
func wideSerialReplies(targets int) []Reply {
	rng := rand.New(rand.NewSource(7))
	addr := func(tag, i uint64) netip.Addr {
		return ipv6.U128{Hi: 0x2001_0000_0000_0000 | tag<<32 | (i*0x9e3779b97f4a7c15)>>32, Lo: i * 0xc2b2ae3d27d4eb4f}.Addr()
	}
	rs := make([]Reply, 0, 16*targets)
	for _, p := range rng.Perm(16 * targets) {
		tgt, ttl := uint64(p/16), uint64(p%16)+1
		fan := min(uint64(1)<<(ttl+1), 11_000)
		from := addr(0x100+ttl, (tgt*fan/uint64(targets))%fan)
		rs = append(rs, Reply{Kind: KindTimeExceeded, From: from, Target: addr(0xd0, tgt), TTL: uint8(ttl), StateRecovered: true})
	}
	return rs
}

// BenchmarkStoreFold folds about 1 M wide-serial-shaped replies into a
// cold store (sized like a campaign shard's) per iteration: per-reply
// Add against the gathered block fold of 256-reply blocks.
func BenchmarkStoreFold(b *testing.B) {
	const targets = 65536
	rs := wideSerialReplies(targets)
	for _, mode := range []string{"add", "block"} {
		b.Run(mode, func(b *testing.B) {
			var g Gathered
			for range b.N {
				s := NewStoreSized(true, 2*targets, hopPiece)
				if mode == "add" {
					for i := range rs {
						s.Add(rs[i])
					}
					continue
				}
				for lo := 0; lo < len(rs); lo += 256 {
					blk := rs[lo:min(lo+256, len(rs))]
					s.Gather(blk, &g)
					for i := range blk {
						s.AddGathered(&g, i)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rs)), "ns/reply")
		})
	}
}

// BenchmarkStoreMerge merges four shard stores of the wide-serial
// replies pairwise, ((0+1) + (2+3)), as a four-shard campaign would.
func BenchmarkStoreMerge(b *testing.B) {
	rs := wideSerialReplies(65536)
	shards := make([]*Store, 4)
	for i := range shards {
		shards[i] = NewStore(true)
	}
	for _, r := range rs {
		shards[int(r.TTL)%4].Add(r)
	}
	b.ResetTimer()
	for range b.N {
		left, right := NewStore(true), NewStore(true)
		left.Merge(shards[0])
		left.Merge(shards[1])
		right.Merge(shards[2])
		right.Merge(shards[3])
		left.Merge(right)
	}
}

// BenchmarkStoreEncode encodes a store of the wide-serial replies (65 536
// traces, about 1 M hops) as a periodic checkpoint would: "steady" again
// and again with nothing added in between, "tail" once after the second
// half of the replies arrived since the last encode, so the index tails
// are sorted and merged first.
func BenchmarkStoreEncode(b *testing.B) {
	rs := wideSerialReplies(65536)
	half := len(rs) / 2
	fill := func(rs []Reply, s *Store) *Store {
		for _, r := range rs {
			s.Add(r)
		}
		return s
	}
	b.Run("steady", func(b *testing.B) {
		s := fill(rs, NewStore(true))
		buf := s.AppendBinary(nil)
		b.ResetTimer()
		for range b.N {
			buf = s.AppendBinary(buf[:0])
		}
	})
	b.Run("tail", func(b *testing.B) {
		var buf []byte
		for range b.N {
			b.StopTimer()
			s := fill(rs[:half], NewStore(true))
			buf = s.AppendBinary(buf[:0])
			fill(rs[half:], s)
			b.StartTimer()
			buf = s.AppendBinary(buf[:0])
		}
	})
}
