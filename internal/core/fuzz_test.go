package core

import (
	"errors"
	"testing"
	"time"

	"beholder/internal/netsim"
	"beholder/internal/probe"
	"beholder/internal/telemetry"
)

// fuzzArtifact builds one small valid checkpoint artifact for seeding.
func fuzzArtifact(tb testing.TB) []byte {
	tb.Helper()
	const seed = 33
	targets := campaignTargets(tb, seed, 13)
	u := campaignUniverse(seed)
	v := u.NewVantage(netsim.VantageSpec{Name: "US-EDU-1", Kind: netsim.KindUniversity, ChainLen: 4})
	camp := NewCampaign(CampaignConfig{
		Config:      campaignCfg(targets),
		Shards:      2,
		RecordPaths: true,
		Telemetry:   telemetry.NewRegistry(),
		InterruptAt: 120 * time.Millisecond,
	}, func(_ int, start time.Duration) probe.Conn { return v.Clone(start) })
	if _, _, err := camp.Run(); !errors.Is(err, ErrInterrupted) {
		tb.Fatalf("seed campaign: %v", err)
	}
	art, err := camp.Checkpoint()
	if err != nil {
		tb.Fatal(err)
	}
	return art
}

// fuzzAdaptiveArtifact builds one small valid adaptive checkpoint
// artifact (magic + sectAdaptive section) for seeding.
func fuzzAdaptiveArtifact(tb testing.TB) []byte {
	tb.Helper()
	const seed = 33
	u, v := saturationVantage(seed)
	pool := gatewayTargets(u, 24, seed)
	a := NewAdaptive(adaptiveCfg(pool, 2, 64, 10*time.Millisecond),
		func(_ int, start time.Duration) probe.Conn { return v.Clone(start) })
	if _, _, err := a.Run(); !errors.Is(err, ErrInterrupted) {
		tb.Fatalf("seed adaptive campaign: %v", err)
	}
	art, err := a.Checkpoint()
	if err != nil {
		tb.Fatal(err)
	}
	return art
}

// FuzzCheckpointDecode hammers the checkpoint artifact decoders:
// arbitrary input must either resume into a campaign or fail with an
// error wrapping ErrCheckpoint (CRC damage specifically wrapping
// ErrCheckpointCRC) — never panic, never silently succeed on
// structurally invalid input. Adaptive-flavored inputs are pushed
// through ResumeAdaptive under the same contract, and plain Resume on
// an adaptive artifact must refuse with an ErrCheckpoint-wrapping
// redirect rather than misread the artifact.
func FuzzCheckpointDecode(f *testing.F) {
	valid := fuzzArtifact(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:9])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)
	adaptive := fuzzAdaptiveArtifact(f)
	// A well-framed container of the wrong shape: an adaptive section
	// behind a complete campaign.
	f.Add(append(append([]byte(nil), valid...), adaptive[len(checkpointMagic):]...))
	f.Add(adaptive)
	f.Add(adaptive[:len(adaptive)-7])
	aflipped := append([]byte(nil), adaptive...)
	aflipped[len(aflipped)/2] ^= 0x04
	f.Add(aflipped)
	f.Add([]byte("Y6CKPT01"))
	f.Add([]byte("Y6CKPT02"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		camp, err := Resume(data, ResumeConfig{}, nil)
		if err != nil {
			if !errors.Is(err, ErrCheckpoint) {
				t.Fatalf("decode error does not wrap ErrCheckpoint: %v", err)
			}
			if camp != nil {
				t.Fatal("non-nil campaign alongside decode error")
			}
		} else if camp == nil {
			t.Fatal("nil campaign with nil error")
		}
		if IsAdaptiveCheckpoint(data) {
			ac, aerr := ResumeAdaptive(data, AdaptiveResumeConfig{
				Source: &epochPoolSource{},
			}, func(_ int, start time.Duration) probe.Conn { return nil })
			if aerr != nil {
				if !errors.Is(aerr, ErrCheckpoint) {
					t.Fatalf("adaptive decode error does not wrap ErrCheckpoint: %v", aerr)
				}
				if ac != nil {
					t.Fatal("non-nil adaptive campaign alongside decode error")
				}
			} else if ac == nil {
				t.Fatal("nil adaptive campaign with nil error")
			}
		}
	})
}
