package beholder

// Determinism proofs for the packet fast path: the flow-plan cache, the
// recycled reply buffers, and the probe-template cache are pure-value
// caches, so campaigns must produce byte-identical results with them
// on, off, resized under eviction pressure, sharded, and raced. Run
// with -race to cover the concurrent cases.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// fastpathCampaign runs one Yarrp6 campaign on a fresh small universe,
// optionally overriding the vantage plan cache (planCache < 0 keeps the
// configured default).
func fastpathCampaign(t *testing.T, seed int64, planCache int, shards int, fill bool) (*Result, *Vantage) {
	t.Helper()
	in := NewSmallInternet(seed)
	targets, err := in.TargetSet("fdns_any", 64, "fixediid", 0.4)
	if err != nil {
		t.Fatal(err)
	}
	v := in.NewVantage("fastpath")
	if planCache >= 0 {
		v.SetPlanCache(planCache)
	}
	res, err := v.RunYarrp6(targets, YarrpOptions{
		Rate: 8000, MaxTTL: 16, Key: 7, Fill: fill, Shards: shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, v
}

// TestPlanCacheOnOffStoreEquality proves the headline invariant: a
// campaign with the flow-plan cache enabled is byte-identical to one
// with it disabled, serially and at 4 shards, fill mode on.
func TestPlanCacheOnOffStoreEquality(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			on, von := fastpathCampaign(t, 42, -1, shards, true)
			off, voff := fastpathCampaign(t, 42, 0, shards, true)
			if !on.Store().Equal(off.Store()) {
				t.Fatal("cache-on and cache-off campaigns disagree")
			}
			if on.ProbesSent != off.ProbesSent || on.Replies != off.Replies || on.Fills != off.Fills {
				t.Fatalf("counter mismatch: on %+v off %+v", on.ProbesSent, off.ProbesSent)
			}
			hits, _ := von.PlanCacheStats()
			if shards == 1 && hits == 0 {
				t.Fatal("cache-on run recorded no plan-cache hits")
			}
			if offHits, _ := voff.PlanCacheStats(); offHits != 0 {
				t.Fatalf("cache-off run recorded %d hits", offHits)
			}
		})
	}
}

// TestPlanCacheEvictionPressure shrinks the cache far below the target
// count: the direct-mapped slots thrash, and results must still be
// identical to the default-cache run.
func TestPlanCacheEvictionPressure(t *testing.T) {
	def, _ := fastpathCampaign(t, 43, -1, 1, true)
	tiny, vt := fastpathCampaign(t, 43, 8, 1, true)
	if !def.Store().Equal(tiny.Store()) {
		t.Fatal("eviction pressure changed campaign results")
	}
	hits, misses := vt.PlanCacheStats()
	if misses == 0 {
		t.Fatal("tiny cache recorded no misses")
	}
	// 8 slots under hundreds of randomized targets must evict nearly
	// every probe: misses dominate.
	if hits > misses {
		t.Fatalf("expected thrashing, got hits=%d misses=%d", hits, misses)
	}
	if def.ProbesSent != tiny.ProbesSent || def.Replies != tiny.Replies {
		t.Fatal("probe/reply counters diverged under eviction pressure")
	}
}

// The 1-shard vs 4-shard × cache-on/off cross-equality lives in
// internal/core (TestCampaignShardCacheMatrix): shard equality requires
// the non-saturating rate-limit regime the campaign tests construct
// (token buckets are epoch-scoped per shard — see core.Campaign), which
// the facade does not expose.

// TestConcurrentVantagesSharedUniverse races several distinct vantages
// probing one universe at once (each campaign sharded, so cloned
// vantages race too) and checks every result equals the same vantage's
// run on a private, identically seeded universe. Covers the plan
// cache, buffer pool, and delivery queue under -race.
func TestConcurrentVantagesSharedUniverse(t *testing.T) {
	const workers = 4
	shared := NewSmallInternet(45)
	targets, err := shared.TargetSet("fdns_any", 64, "fixediid", 0.3)
	if err != nil {
		t.Fatal(err)
	}

	// Vantage creation is serial — like campaign shard construction, it
	// anchors the vantage's timeline on the shared clock — and only the
	// probing itself races.
	vantages := make([]*Vantage, workers)
	for i := 0; i < workers; i++ {
		// Distinct names land in distinct ASes; shards clone the
		// vantage, giving each goroutine private clocks while the
		// universe (topology, routing, ground truth) is shared.
		vantages[i] = shared.NewVantageAt(fmt.Sprintf("races-%d", i), "university", 4)
	}
	results := make([]*Result, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := vantages[i].RunYarrp6(targets, YarrpOptions{Rate: 8000, MaxTTL: 16, Key: 7, Shards: 2})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()

	for i := 0; i < workers; i++ {
		if results[i] == nil {
			t.Fatal("missing result")
		}
		private := NewSmallInternet(45)
		v := private.NewVantageAt(fmt.Sprintf("races-%d", i), "university", 4)
		want, err := v.RunYarrp6(targets, YarrpOptions{Rate: 8000, MaxTTL: 16, Key: 7, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !results[i].Store().Equal(want.Store()) {
			t.Fatalf("vantage %d: concurrent shared-universe run diverged from private-universe run", i)
		}
	}
}

// TestSetPlanCacheMidstream exercises resizing between campaigns on one
// vantage: results must match a fresh vantage at the same setting.
func TestSetPlanCacheMidstream(t *testing.T) {
	in := NewSmallInternet(46)
	targets, err := in.TargetSet("caida", 64, "lowbyte1", 0.3)
	if err != nil {
		t.Fatal(err)
	}
	v := in.NewVantage("resize")
	if _, err := v.RunYarrp6(targets, YarrpOptions{Rate: 8000, MaxTTL: 8, Key: 1}); err != nil {
		t.Fatal(err)
	}
	v.SetPlanCache(64) // discard cached plans, shrink hard
	second, err := v.RunYarrp6(targets, YarrpOptions{Rate: 8000, MaxTTL: 8, Key: 2})
	if err != nil {
		t.Fatal(err)
	}

	in2 := NewSmallInternet(46)
	v2 := in2.NewVantage("resize")
	if _, err := v2.RunYarrp6(targets, YarrpOptions{Rate: 8000, MaxTTL: 8, Key: 1}); err != nil {
		t.Fatal(err)
	}
	want, err := v2.RunYarrp6(targets, YarrpOptions{Rate: 8000, MaxTTL: 8, Key: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Store().Equal(want.Store()) {
		t.Fatal("mid-stream cache resize changed results")
	}
}

// TestPlanTableKeyedByAttachment: the universe keeps one plan table per
// vantage identity, and that identity is everything planning reads from
// the vantage — name, hosting AS, access-chain length. Two vantages that
// share only a name (attached elsewhere after a Reset) must not serve
// each other's access chains and AS paths.
func TestPlanTableKeyedByAttachment(t *testing.T) {
	run := func(in *Internet) []byte {
		targets, err := in.TargetSet("tum", 64, "lowbyte1", 0.2)
		if err != nil {
			t.Fatal(err)
		}
		res, err := in.NewVantageAt("X", "hosting", 2).RunYarrp6(targets, YarrpOptions{Rate: 8000, MaxTTL: 16, Key: 7})
		if err != nil {
			t.Fatal(err)
		}
		return res.Store().AppendBinary(nil)
	}
	want := run(NewSmallInternet(5))

	in := NewSmallInternet(5)
	targets, err := in.TargetSet("tum", 64, "lowbyte1", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.NewVantageAt("X", "university", 4).RunYarrp6(targets, YarrpOptions{Rate: 8000, MaxTTL: 16, Key: 7}); err != nil {
		t.Fatal(err)
	}
	in.Reset()
	if got := run(in); !bytes.Equal(got, want) {
		t.Fatalf("vantage X re-attached at a hosting AS encodes to %d bytes, a fresh Internet's to %d: plans leaked across attachments", len(got), len(want))
	}
}
