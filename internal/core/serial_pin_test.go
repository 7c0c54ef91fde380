package core

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"testing"
	"time"

	"beholder/internal/faultsim"
	"beholder/internal/netsim"
	"beholder/internal/probe"
)

// The digests in this file were recorded at the last commit that still
// had a separate one-probe-per-iteration send loop, on the
// configurations that loop served: Batch 1 and the neighborhood
// heuristic. They hold the single batched loop, run at k = 1, to the
// retired loop's output bytes — except under transient send faults, where
// the two loops disagreed and fills are now retried
// (TestTransientSendBatchOnePin).

// pinDigest fails unless data hashes to want.
func pinDigest(t *testing.T, what string, data []byte, want string) {
	t.Helper()
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("%s digest %s (%d bytes), want %s", what, got, len(data), want)
	}
}

// neighborhoodCfg is TestNeighborhoodSkipsStableTTLs' configuration.
func neighborhoodCfg(u *netsim.Universe) Config {
	return Config{
		Targets: gatewayTargets(u, 200, 9), PPS: 2000, MaxTTL: 8, Key: 2,
		NeighborhoodWindow: 200 * time.Millisecond, NeighborhoodTTL: 3,
	}
}

// TestNeighborhoodInterruptResume cuts a neighborhood-heuristic campaign
// at an instant inside the skip regime and resumes it from the artifact:
// the per-TTL last-discovery instants ride the checkpoint, so the resumed
// run must skip exactly what the uninterrupted one skipped.
func TestNeighborhoodInterruptResume(t *testing.T) {
	const (
		wantSent    = 1165
		wantSkipped = 435
		wantStore   = "ff593e494807d551ff27381b32144a0b30186f7e41f69f67e86ba7688f449f3c"
	)
	run := func(interruptAt time.Duration) (*probe.Store, CampaignStats) {
		u, v := testVantage(t, 9)
		camp := NewCampaign(CampaignConfig{Config: neighborhoodCfg(u), InterruptAt: interruptAt},
			func(_ int, start time.Duration) probe.Conn { return v.Clone(start) })
		store, stats, err := camp.Run()
		if interruptAt == 0 {
			if err != nil {
				t.Fatal(err)
			}
			return store, stats
		}
		if !errors.Is(err, ErrInterrupted) {
			t.Fatalf("interrupted run: %v", err)
		}
		if stats.Skipped == 0 || stats.Skipped == wantSkipped {
			t.Fatalf("cut at %v is not inside the skip regime: %d skipped so far", interruptAt, stats.Skipped)
		}
		art, err := camp.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		_, v2 := testVantage(t, 9)
		resumed, err := Resume(art, ResumeConfig{},
			func(_ int, start time.Duration) probe.Conn { return v2.Clone(start) })
		if err != nil {
			t.Fatal(err)
		}
		store, stats, err = resumed.Run()
		if err != nil {
			t.Fatal(err)
		}
		return store, stats
	}
	for _, at := range []time.Duration{0, 500 * time.Millisecond} {
		store, stats := run(at)
		if stats.ProbesSent != wantSent || stats.Skipped != wantSkipped {
			t.Errorf("interrupt at %v: sent %d skipped %d, want %d and %d", at, stats.ProbesSent, stats.Skipped, wantSent, wantSkipped)
		}
		pinDigest(t, "store", store.AppendBinary(nil), wantStore)
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
