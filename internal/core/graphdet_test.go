package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"net/netip"
	"testing"
	"time"

	"beholder/internal/graph"
	"beholder/internal/netsim"
	"beholder/internal/probe"
	"beholder/internal/wire"
)

// graphCampaign runs one campaign with per-shard streaming graph
// observers on a fresh non-scarce universe (see campaignUniverse), with
// the vantage's plan table or without one, and returns the merged
// graph's canonical NDJSON bytes plus the merged store.
func graphCampaign(t *testing.T, seed int64, targets []netip.Addr, shards int, table bool) ([]byte, *probe.Store) {
	t.Helper()
	u := campaignUniverse(seed)
	v := u.NewVantage(netsim.VantageSpec{Name: "US-EDU-1", Kind: netsim.KindUniversity, ChainLen: 4})
	if !table {
		defer v.SuspendPlanCache()()
	}
	builders := make([]*graph.Graph, shards)
	camp := NewCampaign(CampaignConfig{
		Config:      campaignCfg(targets),
		Shards:      shards,
		RecordPaths: true,
		NewObserver: func(s int) probe.Observer {
			builders[s] = graph.New("US-EDU-1")
			return builders[s]
		},
	}, func(_ int, start time.Duration) probe.Conn { return v.Clone(start) })
	store, _, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Union(builders...)
	var buf bytes.Buffer
	if err := g.WriteNDJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() == 0 {
		t.Fatal("campaign built an empty graph")
	}
	// The streamed+merged graph must equal the batch build over the
	// merged store — the store is already proven shard-invariant.
	if !g.Equal(graph.FromStore(store, "US-EDU-1", wire.ProtoICMPv6)) {
		t.Fatal("streamed shard graphs do not merge to the store-derived graph")
	}
	return buf.Bytes(), store
}

// TestGraphExportBytePin pins the canonical exports of one fixed
// campaign — the matrix's 4-shard cell with the plan table — to the
// SHA-256 digests recorded before the graph interned addresses into
// dense ids: NDJSON of the folded per-shard builders, DOT of the
// store-derived graph. "No output byte changed" is enforced, not
// asserted.
func TestGraphExportBytePin(t *testing.T) {
	const (
		seed       = 909
		wantNDJSON = "c9eabf52fc2d408c053b2959b886df0e41f945a441b2576abbd5dd031325c8df"
		wantDOT    = "fd79295e5efac23a0ba86e5539815e87cf1c6bef557a2bd16ebfa9ac6dff935f"
	)
	nd, store := graphCampaign(t, seed, campaignTargets(t, seed, 96), 4, true)
	sum := sha256.Sum256(nd)
	if got := hex.EncodeToString(sum[:]); got != wantNDJSON {
		t.Fatalf("NDJSON digest %s (%d bytes), want %s", got, len(nd), wantNDJSON)
	}
	var dot bytes.Buffer
	if err := graph.FromStore(store, "US-EDU-1", wire.ProtoICMPv6).WriteDOT(&dot, nil); err != nil {
		t.Fatal(err)
	}
	sum = sha256.Sum256(dot.Bytes())
	if got := hex.EncodeToString(sum[:]); got != wantDOT {
		t.Fatalf("DOT digest %s (%d bytes), want %s", got, dot.Len(), wantDOT)
	}
}
