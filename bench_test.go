package beholder

// One benchmark per table and figure in the paper's evaluation. Each
// iteration regenerates the artifact end to end on a fresh deterministic
// suite (bench scale: small universe, reduced seed lists, fast virtual
// clock), reporting the headline quantity as a custom metric so that
// `go test -bench .` doubles as a full reproduction run.
//
// cmd/beholder regenerates the same artifacts at campaign scale.

import (
	"math/rand"
	"net/netip"
	"runtime"
	"strconv"
	"testing"

	"beholder/internal/probe"
	"beholder/internal/seeds"
	"beholder/internal/target"
	"beholder/internal/wire"
)

// mallocsNow reads the cumulative process malloc count; the hot-path
// benchmarks difference it around their timed regions to report
// allocs/probe, the enforced zero-allocation invariant (see cmd/bench).
func mallocsNow() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func benchSuite(seed int64) *Experiments {
	return NewExperiments(ExpOptions{Seed: seed, Scale: 0.2, Small: true, Rate: 4000})
}

func BenchmarkTable1SeedProperties(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := benchSuite(int64(i) + 1)
		t := e.Table1()
		if len(t.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable2TUMSubsets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := benchSuite(int64(i) + 1)
		t := e.Table2()
		if len(t.Rows) < 6 {
			b.Fatal("missing subsets")
		}
	}
}

func BenchmarkTable3TransformGranularity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := benchSuite(int64(i) + 1)
		t := e.Table3()
		if len(t.Rows) != 4 {
			b.Fatal("want 4 transformation levels")
		}
	}
}

func BenchmarkTable4IIDChoice(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := benchSuite(int64(i) + 1)
		t := e.Table4()
		if len(t.Rows) != 6 {
			b.Fatal("want 6 type/code rows")
		}
	}
}

func BenchmarkTable5TargetSetProperties(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := benchSuite(int64(i) + 1)
		t := e.Table5()
		if len(t.Rows) != 19 {
			b.Fatalf("rows = %d", len(t.Rows))
		}
	}
}

func BenchmarkTable6FillMode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := benchSuite(int64(i) + 1)
		t := e.Table6()
		if len(t.Rows) != 4 {
			b.Fatal("want 4 MaxTTL rows")
		}
	}
}

func BenchmarkTable7Campaigns(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := benchSuite(int64(i) + 1)
		t := e.Table7()
		if len(t.Rows) != 20 {
			b.Fatalf("rows = %d", len(t.Rows))
		}
	}
}

func BenchmarkFigure2TargetFeatures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := benchSuite(int64(i) + 1)
		f := e.Figure2()
		if len(f.Series) != 14 {
			b.Fatalf("series = %d", len(f.Series))
		}
	}
}

func BenchmarkFigure3DPL(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := benchSuite(int64(i) + 1)
		fa, fb := e.Figure3()
		if len(fa.Series) != 8 || len(fb.Series) != 8 {
			b.Fatal("missing series")
		}
	}
}

// BenchmarkFigure4StateCodec measures the Yarrp6 probe state machinery
// itself (Figure 4): building a probe with per-target-constant checksum
// and recovering state from a full ICMPv6 quotation.
func BenchmarkFigure4StateCodec(b *testing.B) {
	in := NewSmallInternet(1)
	v := in.NewVantage("codec")
	codec := probe.NewCodec(v.Conn(), wire.ProtoICMPv6, 0)
	target := MustAddr("2400:5:6:7::1")
	router := MustAddr("2400:9::1")
	pkt := make([]byte, 128)
	errPkt := make([]byte, wire.MinMTU)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := codec.BuildProbe(pkt, target, uint8(i%16+1))
		en := wire.BuildICMPv6Error(errPkt, wire.ICMPv6TimeExceeded, 0, router, v.Addr(), pkt[:n], 64)
		r, ok := codec.ParseReply(errPkt[:en])
		if !ok || !r.StateRecovered || r.Target != target {
			b.Fatal("state recovery failed")
		}
	}
}

func BenchmarkFigure5RateLimiting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := benchSuite(int64(i) + 1)
		fa, fb := e.Figure5()
		if len(fa.Series) != 6 || len(fb.Series) != 6 {
			b.Fatal("want 6 series per vantage (3 rates x 2 methods)")
		}
		// Report the headline: sequential vs randomized hop-1
		// responsiveness at the highest rate.
		seqHop1 := fa.Series[4].Y[0]
		rndHop1 := fa.Series[5].Y[0]
		b.ReportMetric(seqHop1*100, "seq-hop1-%")
		b.ReportMetric(rndHop1*100, "rand-hop1-%")
	}
}

func BenchmarkFigure6ResultFeatures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := benchSuite(int64(i) + 1)
		f := e.Figure6()
		if len(f.Series) != 16 {
			b.Fatalf("series = %d", len(f.Series))
		}
	}
}

func BenchmarkFigure7DiscoveryPower(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := benchSuite(int64(i) + 1)
		f := e.Figure7()
		if len(f.Series) != 9 {
			b.Fatalf("series = %d", len(f.Series))
		}
	}
}

func BenchmarkFigure8SubnetDiscovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := benchSuite(int64(i) + 1)
		fa, fb := e.Figure8()
		if len(fa.Series) != 8 || len(fb.Series) != 9 {
			b.Fatal("missing series")
		}
	}
}

func BenchmarkProtocolComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := benchSuite(int64(i) + 1)
		t := e.ProtocolComparison()
		if len(t.Rows) != 3 {
			b.Fatal("want 3 transports")
		}
	}
}

func BenchmarkDoubletree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := benchSuite(int64(i) + 1)
		t := e.DoubletreeStudy()
		if len(t.Rows) != 4 {
			b.Fatal("want 4 rows")
		}
	}
}

func BenchmarkValidationPlatforms(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := benchSuite(int64(i) + 1)
		t := e.PlatformValidation()
		if len(t.Rows) != 3 {
			b.Fatal("want 3 platforms")
		}
	}
}

func BenchmarkSubnetValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := benchSuite(int64(i) + 1)
		t := e.SubnetValidation()
		if len(t.Rows) != 2 {
			b.Fatal("want dense + stratified rows")
		}
	}
}

// BenchmarkTargetBuild measures the three-step target generation
// pipeline end to end: zn transformation, deduplication, and IID
// synthesis over a DNS-derived seed list.
func BenchmarkTargetBuild(b *testing.B) {
	in := NewSmallInternet(9)
	list, err := in.SeedList("fdns_any", 0.5)
	if err != nil {
		b.Fatal(err)
	}
	var n int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		set := target.Build(list, target.Spec{SeedName: "fdns_any", ZN: 64, Synth: target.FixedIID}, rng)
		n = set.Targets.Len()
		if n == 0 {
			b.Fatal("empty target set")
		}
	}
	b.ReportMetric(float64(int64(n)*int64(b.N))/b.Elapsed().Seconds(), "targets/s")
}

// BenchmarkSeedTargetsTUM measures the set-up path every campaign
// starts from: the tum seed list at scale 3 on the campaign-scale
// universe, then its z64 lowbyte1 target set (the wide-serial inputs).
// The universe is built once, outside the timed region.
func BenchmarkSeedTargetsTUM(b *testing.B) {
	u := NewInternet(2018).Universe()
	var n int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		list, _ := seeds.TUM(u, rand.New(rand.NewSource(int64(i))), 3)
		set := target.Build(list, target.Spec{SeedName: "tum", ZN: 64, Synth: target.LowByte1}, rand.New(rand.NewSource(2018)))
		n = set.Targets.Len()
		if n == 0 {
			b.Fatal("empty target set")
		}
	}
	b.ReportMetric(float64(n), "targets")
}

// BenchmarkAliasDetect measures APD throughput: probes routed through
// the simulator per wall-clock second over a mixed candidate pool of
// truly aliased and genuine /64s.
func BenchmarkAliasDetect(b *testing.B) {
	in := NewSmallInternet(9)
	truth := in.AliasedGroundTruth(8)
	if len(truth) == 0 {
		b.Fatal("no aliased ground truth")
	}
	targets, err := in.TargetSet("fdns_any", 64, "fixediid", 0.3)
	if err != nil {
		b.Fatal(err)
	}
	cands := append(AliasCandidates(targets), truth...)
	var probes int64
	b.ReportAllocs()
	b.ResetTimer()
	m0 := mallocsNow()
	for i := 0; i < b.N; i++ {
		in.Reset()
		v := in.NewVantage("apd-bench")
		aliases := v.DetectAliases(cands, AliasOptions{Rate: 10000})
		probes += aliases.ProbesSent()
		if aliases.Len() == 0 {
			b.Fatal("no aliases detected")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(mallocsNow()-m0)/float64(probes), "allocs/probe")
	b.ReportMetric(float64(probes)/b.Elapsed().Seconds(), "probes/s")
}

// BenchmarkAliasStudy regenerates the follow-on dealiasing table.
func BenchmarkAliasStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := benchSuite(int64(i) + 1)
		t := e.AliasStudy()
		if len(t.Rows) != 2 {
			b.Fatal("want 2 set rows")
		}
	}
}

// BenchmarkCampaignSharded measures the sharded campaign engine at 1, 2,
// and 4 shards over the campaign-scale suite: same permutation domain,
// same virtual schedule, split across concurrent prober instances.
// probes/s is wall-clock throughput; on an N-core machine the 4-shard
// case approaches 4x the 1-shard case (shards share no mutable state
// beyond the read-mostly plan-core and template stores — the only
// cross-shard writes are atomics).
func BenchmarkCampaignSharded(b *testing.B) {
	in := NewSmallInternet(5)
	targets, err := in.TargetSet("fdns_any", 64, "fixediid", 0.5)
	if err != nil {
		b.Fatal(err)
	}
	for _, shards := range []int{1, 2, 4} {
		b.Run("shards="+strconv.Itoa(shards), func(b *testing.B) {
			var sent int64
			var allocs uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Universe construction is fixed-cost setup; keep it out
				// of the probes/s and allocs/probe measurements so the
				// shard-scaling ratio reflects the engine alone.
				b.StopTimer()
				run := NewSmallInternet(5)
				v := run.NewVantage("campaign-bench")
				m0 := mallocsNow()
				b.StartTimer()
				res, err := v.RunYarrp6(targets, YarrpOptions{
					Rate: 10000, MaxTTL: 16, Key: 99, Fill: true, Shards: shards,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				allocs += mallocsNow() - m0
				b.StartTimer()
				sent += res.ProbesSent
			}
			b.StopTimer()
			b.ReportMetric(float64(allocs)/float64(sent), "allocs/probe")
			b.ReportMetric(float64(sent)/b.Elapsed().Seconds(), "probes/s")
		})
	}
}

// BenchmarkCampaignMatrixWorkers regenerates the Table 7 campaign matrix
// with the cell-level worker pool: independent (vantage, target set)
// cells on private universes, up to N at a time.
func BenchmarkCampaignMatrixWorkers(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run("workers="+strconv.Itoa(workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := NewExperiments(ExpOptions{
					Seed: int64(i) + 1, Scale: 0.2, Small: true, Rate: 4000, Workers: workers,
				})
				t := e.Table7()
				if len(t.Rows) != 20 {
					b.Fatalf("rows = %d", len(t.Rows))
				}
			}
		})
	}
}

// BenchmarkYarrp6Batch compares the probe pipeline at batch sizes 1
// (the historical per-probe loop) and the engine default: identical
// results by construction — see core.Config.Batch — so the delta is
// pure dispatch overhead.
func BenchmarkYarrp6Batch(b *testing.B) {
	in := NewSmallInternet(5)
	targets, err := in.TargetSet("caida", 64, "lowbyte1", 0.3)
	if err != nil {
		b.Fatal(err)
	}
	for _, batch := range []int{1, 64} {
		b.Run("batch="+strconv.Itoa(batch), func(b *testing.B) {
			var sent int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				in.Reset()
				v := in.NewVantage("throughput")
				res, err := v.RunYarrp6(targets, YarrpOptions{Rate: 10000, MaxTTL: 16, Key: uint64(i), Batch: batch})
				if err != nil {
					b.Fatal(err)
				}
				sent += res.ProbesSent
			}
			b.StopTimer()
			b.ReportMetric(float64(sent)/b.Elapsed().Seconds(), "probes/s")
		})
	}
}

// BenchmarkYarrp6Throughput measures raw prober packet construction and
// simulator forwarding: probes per wall-clock second over a campaign.
func BenchmarkYarrp6Throughput(b *testing.B) {
	in := NewSmallInternet(5)
	targets, err := in.TargetSet("caida", 64, "lowbyte1", 0.3)
	if err != nil {
		b.Fatal(err)
	}
	var sent int64
	b.ReportAllocs()
	b.ResetTimer()
	m0 := mallocsNow()
	for i := 0; i < b.N; i++ {
		in.Reset()
		v := in.NewVantage("throughput")
		res, err := v.RunYarrp6(targets, YarrpOptions{Rate: 10000, MaxTTL: 16, Key: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		sent += res.ProbesSent
	}
	b.StopTimer()
	b.ReportMetric(float64(mallocsNow()-m0)/float64(sent), "allocs/probe")
	b.ReportMetric(float64(sent)/b.Elapsed().Seconds(), "probes/s")
	_ = netip.Addr{}
}

// BenchmarkYarrp6GraphObserver is BenchmarkYarrp6Throughput returning
// with its topology graph built (YarrpOptions.Graph; the name predates
// the store-derived build): run plus graph must stay within the fast
// path's allocs/probe budget (the same bound make bench-check enforces).
func BenchmarkYarrp6GraphObserver(b *testing.B) {
	in := NewSmallInternet(5)
	targets, err := in.TargetSet("caida", 64, "lowbyte1", 0.3)
	if err != nil {
		b.Fatal(err)
	}
	var sent int64
	var edges int64
	b.ReportAllocs()
	b.ResetTimer()
	m0 := mallocsNow()
	for i := 0; i < b.N; i++ {
		in.Reset()
		v := in.NewVantage("throughput")
		res, err := v.RunYarrp6(targets, YarrpOptions{Rate: 10000, MaxTTL: 16, Key: uint64(i), Graph: true})
		if err != nil {
			b.Fatal(err)
		}
		sent += res.ProbesSent
		edges += int64(res.Graph().NumEdges())
	}
	b.StopTimer()
	if edges == 0 {
		b.Fatal("campaign graph has no edges")
	}
	b.ReportMetric(float64(mallocsNow()-m0)/float64(sent), "allocs/probe")
	b.ReportMetric(float64(sent)/b.Elapsed().Seconds(), "probes/s")
}
