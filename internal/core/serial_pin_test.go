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
// the two loops disagreed (TestTransientSendBatchOnePin).

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
// commit). The digests below are the parent's batch-64 bytes — what every
// default run has always produced — and batch 1 now matches them.
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
		if out.stats.Retries != 87 || out.stats.ProbesSent != 802 || out.stats.Fills != 70 || out.stats.Replies != 683 {
			t.Errorf("batch %d: retries %d probes %d fills %d replies %d, want 87, 802, 70, 683",
				batch, out.stats.Retries, out.stats.ProbesSent, out.stats.Fills, out.stats.Replies)
		}
		pinDigest(t, "store", out.store.AppendBinary(nil), "f9b4f70b3f7db6df21288a8acc9fd376a50c13f0618020abc7cfad383af785dc")
		pinDigest(t, "graph", out.graph, "408fa3461955324d5ac8fdea44bbf1d7c85411b9b1b5aeccc5abe38d71bb38db")
		pinDigest(t, "progress", out.progress, "ef2d0d033b34328ac80f78cba923cb2e6d5560340b7613dc086ceebd6255cfab")
	}
}
