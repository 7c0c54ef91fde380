// Checkpoint artifact inspection: the read-only view callers use to
// validate an artifact against their own configuration before
// committing to a resume — cmd/yarrp6 cross-checks its flags this way,
// and the supervisor reports what a drained campaign contained.
package core

import "time"

// CheckpointInfo is the campaign shape embedded in a checkpoint
// artifact's config section. Everything a resumed run pins from the
// artifact rather than from caller flags is here, so a caller can fail
// fast on a mismatch instead of silently continuing with different
// parameters than it asked for.
type CheckpointInfo struct {
	Shards         int
	Batch          int
	Proto          uint8
	Instance       uint8
	MinTTL, MaxTTL uint8
	PPS            float64
	Key            uint64
	Targets        int // target count (the addresses themselves stay in the artifact)
	Fill           bool
	RecordPaths    bool
	Epoch          time.Duration
	// Adaptive reports an adaptive-campaign artifact (ResumeAdaptive
	// decodes it, not Resume). Targets then counts the pending
	// boundary-generated batch, and Epoch is the adaptive origin.
	Adaptive bool
	// AdaptiveEpoch is the interrupted run's epoch cursor: the index of
	// the epoch that was running (or about to run) at the interrupt.
	AdaptiveEpoch int
}

// InspectCheckpoint decodes an artifact's config section without
// reconstructing the campaign. It reads the artifact through the same
// readSections as Resume — magic, section framing, per-section CRC, one
// shard section per configured shard — so an artifact that inspects
// cleanly will also decode (shard payloads themselves are only
// CRC-verified here, not parsed).
func InspectCheckpoint(artifact []byte) (CheckpointInfo, error) {
	sec, err := readSections(artifact)
	if err != nil {
		return CheckpointInfo{}, err
	}
	cfg, targets, epoch := &sec.cfg, len(sec.cfg.Targets), sec.epoch
	var info CheckpointInfo
	if sec.adaptive != nil {
		st, _, err := decodeAdaptive(sec.adaptive)
		if err != nil {
			return CheckpointInfo{}, err
		}
		cfg, targets, epoch = &st.cfg.CampaignConfig, len(st.pending), st.origin
		info.Adaptive = true
		info.AdaptiveEpoch = st.epoch
	}
	info.Shards = cfg.Shards
	info.Batch = cfg.Batch
	info.Proto = cfg.Proto
	info.Instance = cfg.Instance
	info.MinTTL = cfg.MinTTL
	info.MaxTTL = cfg.MaxTTL
	info.PPS = cfg.PPS
	info.Key = cfg.Key
	info.Targets = targets
	info.Fill = cfg.Fill
	info.RecordPaths = cfg.RecordPaths
	info.Epoch = epoch
	return info, nil
}
