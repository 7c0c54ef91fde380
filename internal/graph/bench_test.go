package graph

import (
	"math/rand"
	"runtime"
	"testing"

	"beholder/internal/probe"
)

func testingAllocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// BenchmarkGraphIngest measures the streaming observer alone: replies
// per second and — the number the fast-path budget cares about —
// allocations per edge operation. The reply stream mixes repeat targets
// (memo hits), interval splits, and reached destinations the way a fill
// campaign does.
func BenchmarkGraphIngest(b *testing.B) {
	replies := randReplies(3, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	var traversals int64
	m0 := testingAllocs()
	for i := 0; i < b.N; i++ {
		g := New("bench")
		for _, r := range replies {
			g.OnReply(r)
		}
		traversals += g.Traversals()
	}
	b.StopTimer()
	allocs := testingAllocs() - m0
	if traversals > 0 {
		b.ReportMetric(float64(allocs)/float64(traversals), "allocs/edge")
	}
	b.ReportMetric(float64(len(replies))*float64(b.N)/b.Elapsed().Seconds(), "replies/s")
}

// BenchmarkGraphMerge measures folding shard subgraphs into a campaign
// graph.
func BenchmarkGraphMerge(b *testing.B) {
	replies := randReplies(5, 2000)
	shards := make([]*Graph, 4)
	for i := range shards {
		shards[i] = New("bench")
	}
	for _, r := range replies {
		shards[int(r.Target.As16()[15]+r.TTL)%len(shards)].OnReply(r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := Union(shards...)
		if g.NumNodes() == 0 {
			b.Fatal("empty merge")
		}
	}
}

// campaignReplies synthesizes a campaign-shaped reply stream: nTargets
// paths of up to 16 hops whose first hops come from a small shared pool
// (the vantage's access chain) and whose later hops fan out, in the
// shuffled arrival order a randomized prober produces — so, unlike
// randReplies' forty routers, the address tables outgrow the caches.
func campaignReplies(seed int64, nTargets int) []probe.Reply {
	rng := rand.New(rand.NewSource(seed))
	var out []probe.Reply
	for i := 0; i < nTargets; i++ {
		tgt := synthAddr(0xd0, i)
		for ttl := 1; ttl <= 16; ttl++ {
			if rng.Intn(4) == 0 {
				continue
			}
			pool := 1 << min(ttl, 14)
			out = append(out, te(tgt, synthAddr(byte(0xa0+ttl), rng.Intn(pool)), uint8(ttl)))
		}
		if rng.Intn(3) == 0 {
			out = append(out, echo(tgt))
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// BenchmarkGraphOnReplyShuffled measures the streaming observer at
// campaign scale: 40 k targets, ~0.5 M replies in randomized order.
func BenchmarkGraphOnReplyShuffled(b *testing.B) {
	replies := campaignReplies(9, 40000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := New("bench")
		for _, r := range replies {
			g.OnReply(r)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(replies)), "ns/reply")
}

// BenchmarkGraphUnion4 measures folding four campaign-scale shard
// subgraphs that all know most routers and every target — what a
// 4-shard campaign's graph merge does.
func BenchmarkGraphUnion4(b *testing.B) {
	replies := campaignReplies(9, 40000)
	shards := make([]*Graph, 4)
	for i := range shards {
		shards[i] = New("bench")
	}
	for i, r := range replies {
		shards[i%len(shards)].OnReply(r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g := Union(shards...); g.NumNodes() == 0 {
			b.Fatal("empty union")
		}
	}
}
