package core

// Shard × plan-table determinism matrix. The sharded campaign engine
// replays the single-prober schedule, and the simulator's flow-plan
// table stores pure-function values — so every shard count, with the
// table or without it, must merge to the same store. Uses the campaign
// tests' non-saturating rate-limit regime: these campaigns run fill
// mode, whose probes fall outside the prime replay (see the package
// comment), so shard equality is exact only while buckets never empty.

import (
	"testing"
	"time"

	"beholder/internal/netsim"
	"beholder/internal/probe"
)

// runShardedCache is runSharded with the parent vantage's plan table
// kept or suspended; clones (one per shard) inherit the choice.
func runShardedCache(t *testing.T, seed int64, shards int, table bool) *probe.Store {
	t.Helper()
	targets := campaignTargets(t, seed, 64)
	u := campaignUniverse(seed)
	v := u.NewVantage(netsim.VantageSpec{Name: "US-EDU-1", Kind: netsim.KindUniversity, ChainLen: 4})
	if !table {
		defer v.SuspendPlanCache()()
	}
	camp := NewCampaign(CampaignConfig{
		Config:      campaignCfg(targets),
		Shards:      shards,
		RecordPaths: true,
	}, func(_ int, start time.Duration) probe.Conn { return v.Clone(start) })
	store, _, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// TestCampaignShardCacheMatrix: {1, 4} shards × {table, no table} all
// produce probe.Store-equal results — determinism is not traded for
// speed.
func TestCampaignShardCacheMatrix(t *testing.T) {
	const seed = 77
	ref := runShardedCache(t, seed, 1, true)
	for _, shards := range []int{1, 4} {
		for _, table := range []bool{false, true} {
			if shards == 1 && table {
				continue
			}
			if !runShardedCache(t, seed, shards, table).Equal(ref) {
				t.Fatalf("shards=%d table=%v: store differs from the 1-shard reference with the table", shards, table)
			}
		}
	}
}
