package core

import (
	"net/netip"
	"testing"
	"time"

	"beholder/internal/netsim"
	"beholder/internal/probe"
)

// campaignUniverse builds a fresh universe for one campaign run. Token
// buckets stay out of the scarce regime (no aggressively rate-limited
// routers), keeping a test focused on schedule and merge determinism;
// saturationVantage exhausts them deliberately.
func campaignUniverse(seed int64) *netsim.Universe {
	cfg := netsim.TestConfig(seed)
	cfg.AggressivePercent = 0
	return netsim.NewUniverse(cfg)
}

func campaignTargets(t testing.TB, seed int64, n int) []netip.Addr {
	t.Helper()
	u := campaignUniverse(seed) // throwaway: target sampling is pure
	return gatewayTargets(u, n, seed)
}

func campaignCfg(targets []netip.Addr) Config {
	return Config{Targets: targets, PPS: 500, MaxTTL: 12, Key: 11, Fill: true}
}

// TestCampaignSingleShardMatchesDirectEngine: a 1-shard Campaign must be
// byte-identical to driving Yarrp6 directly — same store contents, same
// counters — so every existing table and figure reproduces unchanged.
func TestCampaignSingleShardMatchesDirectEngine(t *testing.T) {
	const seed = 77
	targets := campaignTargets(t, seed, 64)

	u := campaignUniverse(seed)
	v := u.NewVantage(netsim.VantageSpec{Name: "US-EDU-1", Kind: netsim.KindUniversity, ChainLen: 4})
	direct := probe.NewStore(true)
	dstats, err := New(v, campaignCfg(targets)).Run(direct)
	if err != nil {
		t.Fatal(err)
	}

	run := ckptReference(t, seed, targets, 1, 0)
	if !run.store.Equal(direct) {
		t.Fatal("1-shard campaign store differs from direct engine store")
	}
	if st := run.stats; st.ProbesSent != dstats.ProbesSent || st.Fills != dstats.Fills ||
		st.Replies != dstats.Replies {
		t.Fatalf("1-shard stats %+v differ from direct %+v", st.Stats, dstats)
	}
}

func TestShardRangePartition(t *testing.T) {
	for _, domain := range []uint64{1, 7, 16, 1000, 12345} {
		for _, n := range []int{1, 2, 3, 4, 7, 16} {
			var covered uint64
			prevHi := uint64(0)
			for s := 0; s < n; s++ {
				lo, hi := shardRange(domain, s, n)
				if lo != prevHi {
					t.Fatalf("domain %d n %d shard %d: lo %d != prev hi %d", domain, n, s, lo, prevHi)
				}
				covered += hi - lo
				prevHi = hi
			}
			if covered != domain || prevHi != domain {
				t.Fatalf("domain %d n %d: covered %d end %d", domain, n, covered, prevHi)
			}
		}
	}
}

// TestCampaignEmptyAndOversharded: shard counts beyond the domain clamp.
func TestCampaignOversharded(t *testing.T) {
	const seed = 5
	targets := campaignTargets(t, seed, 1)[:1]
	u := campaignUniverse(seed)
	v := u.NewVantage(netsim.VantageSpec{Name: "US-EDU-1", Kind: netsim.KindUniversity, ChainLen: 4})
	cfg := CampaignConfig{Config: Config{Targets: targets, PPS: 1000, MaxTTL: 4, Key: 1}, Shards: 64}
	camp := NewCampaign(cfg, func(_ int, start time.Duration) probe.Conn { return v.Clone(start) })
	_, stats, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.ProbesSent != 4 {
		t.Fatalf("probes sent %d want 4", stats.ProbesSent)
	}
	if len(stats.PerShard) != 4 { // clamped to domain size
		t.Fatalf("shards = %d want 4", len(stats.PerShard))
	}
}
