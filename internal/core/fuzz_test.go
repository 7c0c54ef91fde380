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

// FuzzCheckpointDecode hammers both checkpoint artifact decoders:
// every input goes through Resume and through ResumeAdaptive, and each
// must either resume into a campaign or fail with an error wrapping
// ErrCheckpoint (CRC damage specifically wrapping ErrCheckpointCRC) —
// never panic, never silently succeed on structurally invalid input. A
// valid artifact of one kind is an ErrCheckpoint refusal for the other
// decoder, not a misread.
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
	f.Add(append([]byte("Y6CKPT03"), valid[len(checkpointMagic):]...))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(decoder string, resumed bool, err error) {
			switch {
			case err != nil && !errors.Is(err, ErrCheckpoint):
				t.Fatalf("%s: decode error does not wrap ErrCheckpoint: %v", decoder, err)
			case err != nil && resumed:
				t.Fatalf("%s: campaign alongside decode error", decoder)
			case err == nil && !resumed:
				t.Fatalf("%s: no campaign and no error", decoder)
			}
		}
		camp, err := Resume(data, ResumeConfig{}, nil)
		check("Resume", camp != nil, err)
		ac, err := ResumeAdaptive(data, ResumeConfig{Source: &epochPoolSource{}}, nil)
		check("ResumeAdaptive", ac != nil, err)
		if camp != nil && ac != nil {
			t.Fatal("both decoders accepted one artifact")
		}
	})
}
