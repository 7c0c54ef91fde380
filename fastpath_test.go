package beholder

// Determinism proofs for the packet fast path: the flow-plan table holds
// pure-function values and the recycled reply buffers carry nothing
// between replies, so campaigns must produce byte-identical results with
// the table and without it, sharded, and raced. Run with -race to cover
// the concurrent cases.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// fastpathCampaign runs one fill-mode Yarrp6 campaign on a fresh small
// universe, with the vantage's plan table or without one.
func fastpathCampaign(t *testing.T, table bool, shards int) *Result {
	t.Helper()
	in := NewSmallInternet(42)
	targets, err := in.TargetSet("fdns_any", 64, "fixediid", 0.4)
	if err != nil {
		t.Fatal(err)
	}
	v := in.NewVantage("fastpath")
	if !table {
		defer v.v.SuspendPlanCache()()
	}
	res, err := v.RunYarrp6(targets, YarrpOptions{
		Rate: 8000, MaxTTL: 16, Key: 7, Fill: true, Shards: shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPlanCacheOnOffStoreEquality proves the headline invariant: a
// campaign with the flow-plan table is byte-identical to one without
// it, serially and at 4 shards, fill mode on.
func TestPlanCacheOnOffStoreEquality(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			on, off := fastpathCampaign(t, true, shards), fastpathCampaign(t, false, shards)
			if !on.Store().Equal(off.Store()) {
				t.Fatal("campaigns with and without the plan table disagree")
			}
			if on.ProbesSent != off.ProbesSent || on.Replies != off.Replies || on.Fills != off.Fills {
				t.Fatalf("counter mismatch: on %+v off %+v", on.ProbesSent, off.ProbesSent)
			}
			if on.PlanHits == 0 {
				t.Fatal("run with the table recorded no plan hits")
			}
			if off.PlanHits != 0 || off.PlanTableSlots != 0 {
				t.Fatalf("run without a table recorded %d hits on %d slots", off.PlanHits, off.PlanTableSlots)
			}
		})
	}
}

// The 1-shard vs 4-shard × table/no-table cross-equality lives in
// internal/core (TestCampaignEquivalence): these facade campaigns run
// fill mode at a rate that saturates the small universe's rate
// limiters, where fill probes — outside the prime replay, see core's
// package comment — may move a few replies between shard counts; the
// property holds such draws to their own shard count.
// TestGraphPlanCacheDeterminism holds the facade's graph to the same
// table on/off equality.

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
