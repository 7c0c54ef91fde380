package probe_test

import (
	"bytes"
	"math/rand"
	"net/netip"
	"slices"
	"testing"

	"beholder/internal/graph"
	"beholder/internal/probe"
	"beholder/internal/wire"
)

// propReplies builds a deterministic reply stream shaped like a fill
// campaign's: Time Exceeded hops across shared routers, echo replies,
// unreachables, and the occasional unparseable reply.
func propReplies(seed int64, targets int) []probe.Reply {
	rng := rand.New(rand.NewSource(seed))
	mk := func(tag byte, i int) netip.Addr {
		var b [16]byte
		b[0], b[1], b[2] = 0x20, 0x01, tag
		b[14], b[15] = byte(i>>8), byte(i)
		return netip.AddrFrom16(b)
	}
	var out []probe.Reply
	for i := 0; i < targets; i++ {
		tgt := mk(0xd0, i)
		for ttl := uint8(1); ttl <= 14; ttl++ {
			if rng.Intn(4) == 0 {
				continue
			}
			out = append(out, probe.Reply{
				Kind: probe.KindTimeExceeded, From: mk(0xae, rng.Intn(50)),
				Target: tgt, TTL: ttl, StateRecovered: rng.Intn(10) != 0,
			})
		}
		switch rng.Intn(4) {
		case 0:
			out = append(out, probe.Reply{Kind: probe.KindEchoReply, From: tgt, Target: tgt})
		case 1:
			out = append(out, probe.Reply{Kind: probe.KindDestUnreach, From: mk(0xae, rng.Intn(50)),
				Target: tgt, Code: uint8(rng.Intn(5))})
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// shardStores partitions replies into n stores the way campaign shards
// do — disjoint (target, TTL) ownership — and folds each partition.
func shardStores(replies []probe.Reply, n int, recordPaths bool) []*probe.Store {
	out := make([]*probe.Store, n)
	for i := range out {
		out[i] = probe.NewStore(recordPaths)
	}
	for _, r := range replies {
		h := (int(r.Target.As16()[15]) + int(r.TTL)) % n
		out[h].Add(r)
	}
	return out
}

// TestMergeCommutativeAssociative is the determinism-seam property
// test: over shard-disjoint stores, Merge must yield the same store for
// every merge order and grouping, and that store must equal the one a
// single unsharded fold builds. Both path-recording modes are covered.
func TestMergeCommutativeAssociative(t *testing.T) {
	for _, recordPaths := range []bool{true, false} {
		for trial := int64(0); trial < 5; trial++ {
			replies := propReplies(100+trial, 60)
			full := probe.NewStore(recordPaths)
			for _, r := range replies {
				full.Add(r)
			}
			shards := shardStores(replies, 4, recordPaths)

			fold := func(order []int, grouped bool) *probe.Store {
				if grouped {
					// ((a+b) + (c+d)) via intermediate stores.
					left, right := probe.NewStore(recordPaths), probe.NewStore(recordPaths)
					left.Merge(shards[order[0]])
					left.Merge(shards[order[1]])
					right.Merge(shards[order[2]])
					right.Merge(shards[order[3]])
					left.Merge(right)
					return left
				}
				m := probe.NewStore(recordPaths)
				for _, i := range order {
					m.Merge(shards[i])
				}
				return m
			}

			orders := [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}}
			for _, ord := range orders {
				for _, grouped := range []bool{false, true} {
					m := fold(ord, grouped)
					if !m.Equal(full) || !full.Equal(m) {
						t.Fatalf("recordPaths=%v trial=%d order=%v grouped=%v: merged store differs from unsharded fold",
							recordPaths, trial, ord, grouped)
					}
				}
			}
		}
	}
}

// TestMergeEmptyIdentity: merging an empty store is the identity, in
// both directions.
func TestMergeEmptyIdentity(t *testing.T) {
	replies := propReplies(42, 30)
	full := probe.NewStore(true)
	for _, r := range replies {
		full.Add(r)
	}
	onto := probe.NewStore(true)
	onto.Merge(full)
	if !onto.Equal(full) {
		t.Fatal("merge into empty store differs from source")
	}
	full.Merge(probe.NewStore(true))
	if !full.Equal(onto) {
		t.Fatal("merging an empty store changed the target")
	}
}

// TestMergeTranslatesIDs: hops cross a merge as table ids, and two shard
// stores that met the same addresses in opposite orders number them
// differently — so Merge must translate every source id into the
// receiver's numbering. Folded into a fresh store, one into the other, or
// the other way round, the shards must give the serial store in all
// three ways it is read: Equal, the canonical encoding, and the graph
// FromStore builds from it.
func TestMergeTranslatesIDs(t *testing.T) {
	addr := func(tag byte, i int) netip.Addr {
		return netip.AddrFrom16([16]byte{0x20, 0x01, tag, 14: byte(i >> 8), 15: byte(i)})
	}
	const targets, ttls = 24, 12
	var lo, hi []probe.Reply // TTLs 1–6 and 7–12: disjoint shard slices
	for i := 0; i < targets; i++ {
		for ttl := 1; ttl <= ttls; ttl++ {
			r := probe.Reply{Kind: probe.KindTimeExceeded, From: addr(0xae, (i+ttl)%16),
				Target: addr(0xd0, i), TTL: uint8(ttl), StateRecovered: true}
			if ttl <= ttls/2 {
				lo = append(lo, r)
			} else {
				hi = append(hi, r)
			}
		}
		if i%3 == 0 {
			hi = append(hi, probe.Reply{Kind: probe.KindEchoReply, From: addr(0xd0, i), Target: addr(0xd0, i)})
		}
	}
	// One shard meets the hop addresses in ascending order, the other in
	// descending order.
	byFrom := func(x, y probe.Reply) int { return x.From.Compare(y.From) }
	slices.SortStableFunc(lo, byFrom)
	slices.SortStableFunc(hi, func(x, y probe.Reply) int { return byFrom(y, x) })
	fill := func(replies ...[]probe.Reply) *probe.Store {
		s := probe.NewStore(true)
		for _, rs := range replies {
			for _, r := range rs {
				s.Add(r)
			}
		}
		return s
	}
	a, b := fill(lo), fill(hi)
	aID, _, _ := a.AddrTable().Find(addr(0xae, 0))
	bID, _, _ := b.AddrTable().Find(addr(0xae, 0))
	if aID == bID {
		t.Fatalf("both shards gave %s id %d: the case does not exercise translation", addr(0xae, 0), aID)
	}

	serial := fill(lo, hi)
	ndjson := func(s *probe.Store) []byte {
		var buf bytes.Buffer
		if err := graph.FromStore(s, "V", wire.ProtoICMPv6).WriteNDJSON(&buf, nil); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	wantBytes, wantGraph := serial.AppendBinary(nil), ndjson(serial)

	fresh := probe.NewStore(true)
	fresh.Merge(a)
	fresh.Merge(b)
	into := fill(lo)
	into.Merge(b)
	back := fill(hi)
	back.Merge(a)
	for name, m := range map[string]*probe.Store{"fresh": fresh, "into": into, "back": back} {
		if !m.Equal(serial) || !serial.Equal(m) {
			t.Errorf("%s: merged store differs from the serial one", name)
		}
		if !bytes.Equal(m.AppendBinary(nil), wantBytes) {
			t.Errorf("%s: merged store encodes differently from the serial one", name)
		}
		if !bytes.Equal(ndjson(m), wantGraph) {
			t.Errorf("%s: merged store's graph differs from the serial one's", name)
		}
	}
}
