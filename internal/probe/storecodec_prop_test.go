package probe

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"
	"sort"
	"testing"
	"time"
)

// referenceEncode is the straightforward canonical encoder AppendBinary
// replaced: collect the map keys, sort them, copy and sort every
// trace's hops. It reads only the lookup maps, never the canonical
// index, so it is the oracle the index-walking encoder is held to.
func referenceEncode(s *Store) []byte {
	flag := byte(0)
	if s.recordPaths {
		flag = 1
	}
	buf := []byte{flag}
	buf = appendI64(buf, s.TimeExceeded)
	buf = appendI64(buf, s.EchoReplies)
	buf = appendI64(buf, s.TCPRsts)
	buf = appendI64(buf, s.Unparseable)
	buf = appendI64(buf, s.Rewritten)

	codes := make([]int, 0, len(s.DestUnreachByCode))
	for code := range s.DestUnreachByCode {
		codes = append(codes, int(code))
	}
	sort.Ints(codes)
	buf = appendU32(buf, uint32(len(codes)))
	for _, code := range codes {
		buf = append(buf, byte(code))
		buf = appendI64(buf, s.DestUnreachByCode[uint8(code)])
	}

	ifaces := s.Interfaces()
	sort.Slice(ifaces, func(i, j int) bool { return ifaces[i].Less(ifaces[j]) })
	buf = appendU32(buf, uint32(len(ifaces)))
	for _, a := range ifaces {
		a16 := a.As16()
		buf = append(buf, a16[:]...)
	}

	targets := make([]netip.Addr, 0, s.NumTraces())
	for _, t := range s.Traces() {
		targets = append(targets, t.Target())
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].Less(targets[j]) })
	buf = appendU32(buf, uint32(len(targets)))
	for _, target := range targets {
		t := s.Trace(target)
		t16 := target.As16()
		buf = append(buf, t16[:]...)
		reached := byte(0)
		if t.Reached {
			reached = 1
		}
		buf = append(buf, reached)
		hops := hopsOf(s, t)
		sort.Slice(hops, func(i, j int) bool { return hops[i].TTL < hops[j].TTL })
		buf = appendU32(buf, uint32(len(hops)))
		for _, h := range hops {
			buf = append(buf, h.TTL)
			h16 := h.Addr.As16()
			buf = append(buf, h16[:]...)
		}
		unreach := make(map[uint8]int64)
		s.ForEachUnreach(t, func(code uint8, n int64) { unreach[code] += n })
		tcodes := make([]int, 0, len(unreach))
		for code := range unreach {
			tcodes = append(tcodes, int(code))
		}
		sort.Ints(tcodes)
		buf = appendU32(buf, uint32(len(tcodes)))
		for _, code := range tcodes {
			buf = append(buf, byte(code))
			buf = appendI64(buf, unreach[uint8(code)])
		}
	}
	return buf
}

func codecAddr(prefix byte, n int) netip.Addr {
	a := netip.MustParseAddr("2001:db8::").As16()
	a[4] = prefix
	a[13], a[14], a[15] = byte(n>>16), byte(n>>8), byte(n)
	return netip.AddrFrom16(a)
}

// codecReplies draws a campaign's worth of replies in random order:
// every trace gets a random set of distinct TTLs — up to 40, well past
// the 16-hop slab piece — inserted out of TTL order, interface
// addresses shared across traces, a few destination-unreachable codes
// per trace, and the occasional destination answer. (target, TTL) pairs
// are unique, so the store's content does not depend on the order.
func codecReplies(rng *rand.Rand, traces int) []Reply {
	var out []Reply
	ids := rng.Perm(traces * 8)
	for ti := 0; ti < traces; ti++ {
		target := codecAddr(1, ids[ti])
		depth := 1 + rng.Intn(40)
		for _, ttl := range rng.Perm(64)[:depth] {
			out = append(out, Reply{
				From: codecAddr(2, rng.Intn(traces*4+1)), Target: target,
				Kind: KindTimeExceeded, TTL: uint8(ttl + 1), StateRecovered: rng.Intn(50) != 0,
			})
		}
		for i := rng.Intn(4); i > 0; i-- {
			out = append(out, Reply{
				From: codecAddr(3, ti), Target: target,
				Kind: KindDestUnreach, Code: uint8(rng.Intn(7)), TTL: uint8(1 + rng.Intn(64)),
			})
		}
		switch rng.Intn(6) {
		case 0:
			out = append(out, Reply{From: target, Target: target, Kind: KindEchoReply})
		case 1:
			out = append(out, Reply{From: target, Target: target, Kind: KindTCPRst, TargetRewritten: true})
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	for i := range out {
		out[i].At = time.Duration(i) * time.Microsecond
	}
	return out
}

func assertCanonical(t *testing.T, label string, s *Store) {
	t.Helper()
	want := referenceEncode(s)
	got := s.AppendBinary(nil)
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: AppendBinary differs from the reference encoder (%d vs %d bytes)", label, len(got), len(want))
	}
	if n := s.EncodedSize(); n != len(got) {
		t.Fatalf("%s: EncodedSize = %d, encoding has %d bytes", label, n, len(got))
	}
	// Encoding leaves the store canonical: a second encode, now with an
	// empty index tail, appends the same bytes after a prefix.
	if again := s.AppendBinary([]byte("prefix")); !bytes.Equal(again[6:], want) {
		t.Fatalf("%s: re-encoding differs", label)
	}
}

// TestStoreCanonicalEncodeProperty holds the index-walking encoder to
// the reference on random stores built every way a store can be built:
// shuffled Add order, encodes interleaved with further Adds (sorted
// prefix plus unsorted tail), Merge of random partitions in random
// order, DecodeStore followed by more Adds, and the path-less store.
func TestStoreCanonicalEncodeProperty(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		replies := codecReplies(rng, 20+rng.Intn(200))
		for _, recordPaths := range []bool{true, false} {
			label := func(how string) string {
				return fmt.Sprintf("seed %d recordPaths=%v %s", seed, recordPaths, how)
			}

			// Adds in shuffled order, encoding at random points on the way.
			added := NewStore(recordPaths)
			for i, r := range replies {
				added.Add(r)
				if rng.Intn(len(replies)/3+1) == 0 {
					assertCanonical(t, label(fmt.Sprintf("after %d adds", i+1)), added)
				}
			}
			assertCanonical(t, label("all adds"), added)

			// Merge of a random partition, folded in random order, some of
			// the parts already encoded (and so already canonical).
			parts := make([]*Store, 2+rng.Intn(4))
			for i := range parts {
				parts[i] = NewStore(recordPaths)
			}
			for _, r := range replies {
				parts[rng.Intn(len(parts))].Add(r)
			}
			merged := NewStore(recordPaths)
			for _, i := range rng.Perm(len(parts)) {
				if rng.Intn(2) == 0 {
					assertCanonical(t, label("part"), parts[i])
				}
				merged.Merge(parts[i])
				if rng.Intn(2) == 0 {
					assertCanonical(t, label("partial merge"), merged)
				}
			}
			assertCanonical(t, label("merged"), merged)
			if !merged.Equal(added) {
				t.Fatalf("%s: merged partition differs from the added store", label(""))
			}

			// Decode of the first half, the second half added on top.
			half := NewStore(recordPaths)
			for _, r := range replies[:len(replies)/2] {
				half.Add(r)
			}
			decoded, err := DecodeStore(referenceEncode(half))
			if err != nil {
				t.Fatal(err)
			}
			assertCanonical(t, label("decoded"), decoded)
			for _, r := range replies[len(replies)/2:] {
				decoded.Add(r)
			}
			assertCanonical(t, label("decoded plus adds"), decoded)
			if !decoded.Equal(added) {
				t.Fatalf("%s: decoded-and-continued store differs from the added store", label(""))
			}
		}
	}
}

// mallocs counts the heap allocations of one call of f — like
// testing.AllocsPerRun, but without the warm-up call, which would
// consume the one-time work being measured.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestStoreEncodeAllocs bounds the encoder's allocations independently
// of the store's size: into a pre-grown buffer, the first encode, an
// encode that has to merge a freshly added index tail, and a repeated
// encode each allocate at most 4 times, at 1x and at 10x the trace
// count alike.
func TestStoreEncodeAllocs(t *testing.T) {
	for _, traces := range []int{300, 3000} {
		rng := rand.New(rand.NewSource(int64(traces)))
		replies := codecReplies(rng, traces)
		s := NewStore(true)
		for _, r := range replies[:len(replies)/2] {
			s.Add(r)
		}
		buf := make([]byte, 0, 64*len(replies))
		if n := mallocs(func() { buf = s.AppendBinary(buf[:0]) }); n > 4 {
			t.Errorf("%d traces: first encode allocated %d times, want <= 4", traces, n)
		}
		for _, r := range replies[len(replies)/2:] {
			s.Add(r)
		}
		if n := mallocs(func() { buf = s.AppendBinary(buf[:0]) }); n > 4 {
			t.Errorf("%d traces: encode with an index tail allocated %d times, want <= 4", traces, n)
		}
		if n := testing.AllocsPerRun(5, func() { buf = s.AppendBinary(buf[:0]) }); n != 0 {
			t.Errorf("%d traces: repeated encode allocates %.0f times, want 0", traces, n)
		}
		if !bytes.Equal(buf, referenceEncode(s)) {
			t.Fatalf("%d traces: encoding differs from the reference", traces)
		}
	}
}
