package core

import (
	"bytes"
	"net/netip"
	"testing"
	"time"

	"beholder/internal/graph"
	"beholder/internal/netsim"
	"beholder/internal/probe"
	"beholder/internal/telemetry"
	"beholder/internal/wire"
)

// batchCampaign runs one campaign at the given shard count and send
// batch size, with per-shard streaming graph observers and the telemetry
// progress stream enabled, and returns the merged store, the merged
// graph's canonical NDJSON, the progress NDJSON stream, and the campaign
// stats.
func batchCampaign(t *testing.T, seed int64, targets []netip.Addr, shards, batch int) (*probe.Store, []byte, []byte, CampaignStats) {
	t.Helper()
	u := campaignUniverse(seed)
	v := u.NewVantage(netsim.VantageSpec{Name: "US-EDU-1", Kind: netsim.KindUniversity, ChainLen: 4})
	cfg := campaignCfg(targets)
	cfg.Batch = batch
	builders := make([]*graph.Graph, shards)
	var progress bytes.Buffer
	camp := NewCampaign(CampaignConfig{
		Config:      cfg,
		Shards:      shards,
		RecordPaths: true,
		NewObserver: func(s int) probe.Observer {
			builders[s] = graph.New("US-EDU-1")
			return builders[s]
		},
		Telemetry:      telemetry.NewRegistry(),
		ProgressWriter: &progress,
	}, func(_ int, start time.Duration) probe.Conn { return v.Clone(start) })
	store, stats, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Union(builders...)
	var buf bytes.Buffer
	if err := g.WriteNDJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if !g.Equal(graph.FromStore(store, "US-EDU-1", wire.ProtoICMPv6)) {
		t.Fatal("streamed shard graphs do not merge to the store-derived graph")
	}
	return store, buf.Bytes(), progress.Bytes(), stats
}

// TestCampaignShardBatchMatrix is the central acceptance test: for
// every (shards, batch-size) cell — including batch sizes that do not
// divide the shard windows — the merged store, the canonical graph
// export, the NDJSON progress stream, and the campaign counters are
// byte-identical to the serial (1-shard, batch-1) run. Batch size
// changes how probes are dispatched, never the virtual schedule; shard
// count changes who samples, never what the samples say. The -race CI
// job runs this matrix too.
func TestCampaignShardBatchMatrix(t *testing.T) {
	const seed = 1213
	// 61 targets × 12 TTLs = a 732-slot domain: not divisible by 7 or
	// 64, and shard windows of 732/2 and 732/4 are not divisible either.
	targets := campaignTargets(t, seed, 61)
	refStore, refGraph, refProgress, refStats := batchCampaign(t, seed, targets, 1, 1)
	if len(refProgress) == 0 {
		t.Fatal("reference run produced an empty progress stream")
	}
	// The reference cell's bytes as the retired one-probe-per-iteration
	// loop produced them (see serial_pin_test.go): batch = 1 is held to
	// that loop's output, not to itself.
	pinDigest(t, "reference store", refStore.AppendBinary(nil), "a7504c44a6742010ae970f42f7d694c2c1ac2b88926bf4e20e918e458284314a")
	pinDigest(t, "reference graph", refGraph, "27750dd89579f563c7ea85f8f3fa09c350a57a7cd41716814f975515fbde97da")
	pinDigest(t, "reference progress", refProgress, "837e62a213640cdc1b678f4ee90fcaeeb422dd7eddbb34101e6674ac66fedba9")
	for _, shards := range []int{1, 2, 4} {
		for _, batch := range []int{1, 7, 64} {
			if shards == 1 && batch == 1 {
				continue
			}
			store, g, progress, stats := batchCampaign(t, seed, targets, shards, batch)
			if !store.Equal(refStore) {
				t.Fatalf("store differs at shards=%d batch=%d", shards, batch)
			}
			if !bytes.Equal(g, refGraph) {
				t.Errorf("graph differs at shards=%d batch=%d", shards, batch)
			}
			if !bytes.Equal(progress, refProgress) {
				t.Errorf("progress stream differs at shards=%d batch=%d:\nref:  %s\ngot:  %s",
					shards, batch, refProgress, progress)
			}
			if stats.ProbesSent != refStats.ProbesSent || stats.Fills != refStats.Fills ||
				stats.Replies != refStats.Replies || stats.NotMine != refStats.NotMine {
				t.Fatalf("stats differ at shards=%d batch=%d: %+v vs %+v",
					shards, batch, stats.Stats, refStats.Stats)
			}
		}
	}
}

// TestCampaignFillProgressMatrix holds the discovery series in the
// paper's Figure 7 configuration — fill mode on — to the contract the
// store carries: CampaignStats.Progress, written as NDJSON samples, is
// byte-identical at every shard count and batch size, whether the
// interface counts come from a lone shard's own store or from the
// shards' merged first sightings. It is monotone, and its last point
// lands on the campaign totals.
func TestCampaignFillProgressMatrix(t *testing.T) {
	const seed = 77
	targets := campaignTargets(t, seed, 64)
	var ref []byte
	for _, shards := range []int{1, 2, 4} {
		for _, batch := range []int{1, 64} {
			store, _, _, stats := batchCampaign(t, seed, targets, shards, batch)
			pts := stats.Progress
			if len(pts) < 8 {
				t.Fatalf("shards=%d batch=%d: progress series has only %d points", shards, batch, len(pts))
			}
			for i := 1; i < len(pts); i++ {
				if pts[i].At <= pts[i-1].At || pts[i].Probes < pts[i-1].Probes || pts[i].Interfaces < pts[i-1].Interfaces {
					t.Fatalf("shards=%d batch=%d: series not monotone at point %d: %+v after %+v", shards, batch, i, pts[i], pts[i-1])
				}
			}
			if last := pts[len(pts)-1]; last.Probes != stats.ProbesSent || last.Interfaces != store.NumInterfaces() || last.At != stats.Elapsed {
				t.Fatalf("shards=%d batch=%d: last point %+v, campaign %d probes, %d interfaces, elapsed %v",
					shards, batch, last, stats.ProbesSent, store.NumInterfaces(), stats.Elapsed)
			}
			var buf bytes.Buffer
			if err := telemetry.WritePoints(&buf, pts); err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = buf.Bytes()
			} else if !bytes.Equal(buf.Bytes(), ref) {
				t.Fatalf("progress samples differ at shards=%d batch=%d:\nref: %s\ngot: %s", shards, batch, ref, buf.Bytes())
			}
		}
	}
}
