package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"beholder/internal/faultsim"
)

// One send loop serves every batch size. The batch-1 digests of the
// seed-1213 row of TestCampaignEquivalence were recorded at the last
// commit that still had a separate one-probe-per-iteration loop, so they
// hold the batched loop, run at k = 1, to the retired loop's bytes. The
// pin below covers the one case where the two loops disagreed: transient
// send faults, under which fills are now retried.

// pinDigest fails unless data hashes to want.
func pinDigest(t *testing.T, what string, data []byte, want string) {
	t.Helper()
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("%s digest %s (%d bytes), want %s", what, got, len(data), want)
	}
}

// TestTransientSendBatchOnePin runs a 1-shard fill campaign under
// EAGAIN-shaped send failures at batch 1 and batch 64. The retry path
// is the one place the two loops diverged: the retired loop backed off
// and re-sent without draining, the batched loop drains what arrived
// during the back-off slot first, so replies — and the fills they
// trigger — landed one slot apart and batch 1 disagreed with every other
// batch size (800 probes / 68 fills, store digest 1328b541… at the parent
// commit). Batch 1 then matched batch 64's bytes (87 retries, 802 probes,
// 70 fills, store f9b4f70b…). Those bytes dropped every fill whose send
// failed; fills now back off and retry under the same bound, so both
// batch sizes send 21 more fills, and agree on the digests below.
func TestTransientSendBatchOnePin(t *testing.T) {
	const seed = 2718
	targets := campaignTargets(t, seed, 61)
	fc := &faultsim.Config{Seed: 0xc4a05, Rules: []faultsim.Rule{{Vantage: "US-EDU-1",
		Shard: faultsim.MatchAnyShard, Kind: faultsim.KindTransientSend, Prob: 0.1}}}
	for _, batch := range []int{1, 64} {
		out := chaosRun(t, seed, fc, targets, 1, batch, 0)
		if out.err != nil {
			t.Fatal(out.err)
		}
		if out.stats.Retries != 90 || out.stats.ProbesSent != 823 || out.stats.Fills != 91 || out.stats.Replies != 698 {
			t.Errorf("batch %d: retries %d probes %d fills %d replies %d, want 90, 823, 91, 698",
				batch, out.stats.Retries, out.stats.ProbesSent, out.stats.Fills, out.stats.Replies)
		}
		pinDigest(t, "store", out.store.AppendBinary(nil), "809db72d68f556b91c500bb5699cddf4bfb2c0ca83af9f82e9fa0394faac4637")
		pinDigest(t, "graph", out.graph, "f80aa9b44541c66b1fbc118cbc7d02a5ecf6a1d29a17d63c42ece1f49bec5daa")
		pinDigest(t, "progress", out.progress, "b860fa756c557f331dba2bc11d4a3db671ac880e8eec37b699b183f3cb491157")
	}
}
