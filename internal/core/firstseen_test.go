package core

import (
	"math/rand"
	"net/netip"
	"slices"
	"testing"
	"time"

	"beholder/internal/ipv6"
)

// firstSeenAtMap is the hash-set fold firstSeenAt replaced, kept as its
// oracle: every sighting into a map keyed by address, keeping the
// earliest instant, then the instants sorted.
func firstSeenAtMap(tracks []*ifaceTimes) []time.Duration {
	first := make(map[ipv6.U128]time.Duration)
	for _, tr := range tracks {
		for _, e := range tr.seen {
			if cur, ok := first[e.key]; !ok || e.at < cur {
				first[e.key] = e.at
			}
		}
	}
	seenAt := make([]time.Duration, 0, len(first))
	for _, at := range first {
		seenAt = append(seenAt, at)
	}
	slices.Sort(seenAt)
	return seenAt
}

// TestFirstSeenAtMerge holds the merge of per-track sorted lists to the
// map fold on random campaigns: addresses drawn from a small pool, so
// most are sighted by several shards at different instants; lists left
// partly in arrival order, as a run leaves them between checkpoints.
func TestFirstSeenAtMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		pool := make([]netip.Addr, 1+rng.Intn(60))
		for i := range pool {
			var a [16]byte
			a[0], a[1], a[14], a[15] = 0x20, 0x01, byte(rng.Intn(4)), byte(rng.Intn(256))
			pool[i] = netip.AddrFrom16(a)
		}
		tracks := make([]*ifaceTimes, rng.Intn(7))
		for i := range tracks {
			tr := &ifaceTimes{}
			seen := map[netip.Addr]bool{}
			for n := rng.Intn(len(pool) + 1); n > 0; n-- {
				a := pool[rng.Intn(len(pool))]
				if seen[a] {
					continue // a store reports an address new once
				}
				seen[a] = true
				tr.add(a, time.Duration(rng.Intn(50))*time.Millisecond)
				if rng.Intn(8) == 0 {
					tr.sortedSeen() // a checkpoint sorted what came so far
				}
			}
			tracks[i] = tr
		}
		want := firstSeenAtMap(tracks)
		if got := firstSeenAt(tracks); !slices.Equal(got, want) {
			t.Fatalf("trial %d: merge %v, map fold %v", trial, got, want)
		}
	}
}
