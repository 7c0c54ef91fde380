package core

import (
	"bytes"
	"errors"
	"net/netip"
	"testing"
	"time"

	"beholder/internal/netsim"
	"beholder/internal/probe"
	"beholder/internal/telemetry"
)

// saturationVantage builds a universe whose ICMPv6 rate limiters the
// campaign schedule below actually exhausts: shallow aggressive buckets
// against an unpaced 8 kpps probe train through a shared access chain.
// The other matrix tests deliberately run at AggressivePercent 0; this
// file is the one that probes past the rate limits, which is exactly
// the regime where shard-window bucket priming and checkpointed bucket
// state earn their keep.
func saturationVantage(seed int64) (*netsim.Universe, *netsim.Vantage) {
	cfg := netsim.TestConfig(seed)
	cfg.AggressivePercent = 60
	cfg.RateLimitTokensMin = 20
	cfg.RateLimitTokensMax = 80
	cfg.RateLimitBurstMin = 4
	cfg.RateLimitBurstMax = 16
	u := netsim.NewUniverse(cfg)
	return u, u.NewVantage(netsim.VantageSpec{Name: "US-EDU-1", Kind: netsim.KindUniversity, ChainLen: 4})
}

func saturationCfg(targets []netip.Addr) Config {
	return Config{Targets: targets, PPS: 8000, MaxTTL: 12, Key: 31, Fill: true}
}

// satReference runs the uninterrupted saturating campaign at the given
// cell, returning the run artifacts and the universe's rate-limit drop
// counter.
func satReference(t *testing.T, seed int64, targets []netip.Addr, shards, batch int) (ckptRun, int64) {
	t.Helper()
	u, v := saturationVantage(seed)
	cfg := saturationCfg(targets)
	cfg.Batch = batch
	var progress bytes.Buffer
	camp := NewCampaign(CampaignConfig{
		Config:         cfg,
		Shards:         shards,
		RecordPaths:    true,
		Telemetry:      telemetry.NewRegistry(),
		ProgressWriter: &progress,
	}, func(_ int, start time.Duration) probe.Conn { return v.Clone(start) })
	store, stats, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	run := ckptRun{store: store, graph: graphNDJSON(t, store), progress: progress.Bytes(), stats: stats}
	return run, u.Stats.RateLimitDropped
}

// satInterruptResume interrupts the saturating campaign at interruptAt,
// checkpoints, and resumes on a fresh identically-seeded universe.
func satInterruptResume(t *testing.T, seed int64, targets []netip.Addr, shards, batch int, interruptAt time.Duration) ckptRun {
	t.Helper()
	_, v := saturationVantage(seed)
	cfg := saturationCfg(targets)
	cfg.Batch = batch
	camp := NewCampaign(CampaignConfig{
		Config:      cfg,
		Shards:      shards,
		RecordPaths: true,
		Telemetry:   telemetry.NewRegistry(),
		InterruptAt: interruptAt,
	}, func(_ int, start time.Duration) probe.Conn { return v.Clone(start) })
	if _, _, err := camp.Run(); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted run: got err %v, want ErrInterrupted", err)
	}
	art, err := camp.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	_, v2 := saturationVantage(seed)
	var progress bytes.Buffer
	camp2, err := Resume(art, ResumeConfig{
		Telemetry:      telemetry.NewRegistry(),
		ProgressWriter: &progress,
	}, func(_ int, start time.Duration) probe.Conn { return v2.Clone(start) })
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	store, stats, err := camp2.Run()
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	return ckptRun{store: store, graph: graphNDJSON(t, store), progress: progress.Bytes(), stats: stats}
}

// TestCampaignSaturationMatrix is the saturation-regime acceptance
// test: with router token buckets exhausted mid-run, every (shards,
// batch) cell — uninterrupted, and interrupted both mid-send and in the
// drain tail with a resume on a fresh universe — must stay
// byte-identical to the serial reference in store, graph export,
// progress stream, and counters. This is the matrix that
// used to carry the "a few extra replies near shard-window starts"
// caveat: shard clones now open with their buckets primed to the
// window-start levels, and checkpoints carry the bucket state across
// the interrupt, so no cell deviates even past the rate limits.
func TestCampaignSaturationMatrix(t *testing.T) {
	const seed = 907
	u, _ := saturationVantage(seed)
	targets := gatewayTargets(u, 48, seed)
	// 48 targets × 12 TTLs = 576 probes at 8 kpps: sends span 72ms.
	// 40ms lands mid-send inside every shard window; 110ms lands in the
	// drain tail.
	instants := []time.Duration{40 * time.Millisecond, 110 * time.Millisecond}
	ref, dropped := satReference(t, seed, targets, 1, 1)
	if dropped == 0 {
		t.Fatal("reference run never tripped a rate limiter; the matrix is not testing saturation")
	}
	if len(ref.progress) == 0 {
		t.Fatal("reference run produced an empty progress stream")
	}
	for _, shards := range []int{1, 2, 4} {
		for _, batch := range []int{1, 64} {
			refCell, _ := satReference(t, seed, targets, shards, batch)
			if !refCell.store.Equal(ref.store) {
				t.Fatalf("shards=%d batch=%d: store differs from serial reference under saturation", shards, batch)
			}
			if !bytes.Equal(refCell.graph, ref.graph) {
				t.Fatalf("shards=%d batch=%d: graph differs from serial reference under saturation", shards, batch)
			}
			if !bytes.Equal(refCell.progress, ref.progress) {
				t.Fatalf("shards=%d batch=%d: progress differs from serial reference under saturation", shards, batch)
			}
			for _, at := range instants {
				got := satInterruptResume(t, seed, targets, shards, batch, at)
				t.Logf("shards=%d batch=%d interrupt=%v", shards, batch, at)
				assertRunsEqual(t, "saturated resume", got, refCell)
			}
		}
	}
}
