package core

import (
	"errors"
	"testing"
	"time"

	"beholder/internal/probe"
	"beholder/internal/telemetry"
	"beholder/internal/wire"
)

// TestInspectCheckpoint pins the read-only artifact view against the
// campaign that wrote it: every field a resume would pin from the
// artifact must come back exactly, and structural damage must fail with
// the same typed errors Resume raises.
func TestInspectCheckpoint(t *testing.T) {
	const seed = 909
	targets := campaignTargets(t, seed, 47)
	v := ckptVantage(seed)
	cfg := campaignCfg(targets)
	cfg.Batch = 32
	camp := NewCampaign(CampaignConfig{
		Config:      cfg,
		Shards:      3,
		RecordPaths: true,
		Telemetry:   telemetry.NewRegistry(),
		InterruptAt: 150 * time.Millisecond,
	}, func(_ int, start time.Duration) probe.Conn { return v.Clone(start) })
	if _, _, err := camp.Run(); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted run: %v", err)
	}
	art, err := camp.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	info, err := InspectCheckpoint(art)
	if err != nil {
		t.Fatalf("inspect: %v", err)
	}
	if info.Shards != 3 || info.Batch != 32 || info.Proto != wire.ProtoICMPv6 {
		t.Fatalf("shape = shards %d batch %d proto %d", info.Shards, info.Batch, info.Proto)
	}
	if info.Targets != len(targets) || info.Key != cfg.Key || info.PPS != cfg.PPS {
		t.Fatalf("identity = targets %d key %d pps %v", info.Targets, info.Key, info.PPS)
	}
	if info.MinTTL != 1 || info.MaxTTL != cfg.MaxTTL || !info.Fill || !info.RecordPaths {
		t.Fatalf("options = %+v", info)
	}
	if info.Epoch != camp.Epoch() {
		t.Fatalf("epoch %v, campaign %v", info.Epoch, camp.Epoch())
	}

	if _, err := InspectCheckpoint(art[:len(art)/2]); !errors.Is(err, ErrCheckpoint) {
		t.Fatalf("truncated artifact: %v", err)
	}
	bad := append([]byte(nil), art...)
	bad[len(bad)-1] ^= 0xff
	if _, err := InspectCheckpoint(bad); !errors.Is(err, ErrCheckpointCRC) {
		t.Fatalf("corrupted artifact: %v", err)
	}
	if _, err := InspectCheckpoint([]byte("not a checkpoint")); !errors.Is(err, ErrCheckpoint) {
		t.Fatalf("garbage artifact: %v", err)
	}
}
