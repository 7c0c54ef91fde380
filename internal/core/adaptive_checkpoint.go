// Adaptive checkpoint artifacts: the generation loop's state rides in
// the same versioned container as campaign checkpoints. An adaptive
// artifact is the magic followed by a single sectAdaptive section whose
// payload carries the epoch cursor, the per-epoch statistics, the
// target source serialized whole (seeds and configuration included, so
// a resume supplies none of them), the accumulated store, the pending
// boundary-generated targets, and — when the interrupt landed mid-epoch
// — the inner campaign's own complete artifact embedded verbatim.
package core

import (
	"encoding/binary"
	"fmt"
	"net/netip"

	"beholder/internal/probe"
)

// Checkpoint serializes the adaptive run's complete state after an
// interrupted Run: generation state, accumulated results, and
// the interrupted epoch campaign's artifact when the cut landed inside
// an epoch. ResumeAdaptive reconstructs a run that continues exactly.
func (a *AdaptiveCampaign) Checkpoint() ([]byte, error) {
	if !a.interrupted {
		return nil, ErrNotCheckpointable
	}
	a.mu.Lock()
	inner := a.inner
	a.mu.Unlock()
	var innerArt []byte
	if inner != nil {
		art, err := inner.Checkpoint()
		if err != nil {
			return nil, err
		}
		innerArt = art
	}
	buf := append([]byte(nil), checkpointMagic...)
	return appendSection(buf, sectAdaptive, func(b []byte) []byte { return a.appendAdaptive(b, innerArt) }), nil
}

func (a *AdaptiveCampaign) appendAdaptive(buf, innerArt []byte) []byte {
	cfg := &a.cfg
	var flags byte
	if len(innerArt) > 0 {
		flags |= 1
	}
	if cfg.Fill {
		flags |= 2
	}
	if cfg.RecordPaths {
		flags |= 4
	}
	buf = appendTuning(append(buf, flags), &cfg.CampaignConfig)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(cfg.Budget))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(cfg.EpochTargets))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(cfg.MaxEpochs))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(a.epoch))
	buf = appendDur(buf, a.base)
	buf = appendDur(buf, a.origin)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(a.spent))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(a.epochs)))
	for _, e := range a.epochs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Targets))
		buf = appendDur(buf, e.Base)
		buf = appendCounters(buf, &e.Stats)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Interfaces))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(a.pending)))
	for _, t := range a.pending {
		t16 := t.As16()
		buf = append(buf, t16[:]...)
	}
	src := cfg.Source.AppendState(nil)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(src)))
	buf = append(buf, src...)
	buf = appendStore(buf, a.total)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(innerArt)))
	return append(buf, innerArt...)
}

// decodeAdaptive decodes an adaptive section into a resumed campaign
// that still lacks its non-serializable halves (connections, target
// source, hooks), plus the serialized target-source state.
func decodeAdaptive(payload []byte) (a *AdaptiveCampaign, source []byte, err error) {
	a = &AdaptiveCampaign{originSet: true, resumed: true}
	cfg := &a.cfg
	r := ckReader{buf: payload}
	flags := r.u8()
	hasInner := flags&1 != 0
	cfg.Fill = flags&2 != 0
	cfg.RecordPaths = flags&4 != 0
	r.tuning(&cfg.CampaignConfig)
	cfg.Budget = r.i64()
	cfg.EpochTargets = int(r.u32())
	cfg.MaxEpochs = int(r.u32())
	if cfg.MaxEpochs == 0 || cfg.EpochTargets <= 0 {
		r.fail("invalid adaptive bounds")
	}
	a.epoch = int(r.u32())
	a.base = r.dur()
	a.origin = r.dur()
	a.spent = r.i64()
	a.epochs = make([]EpochStats, r.count(68))
	for i := range a.epochs {
		e := &a.epochs[i]
		e.Epoch = i
		e.Targets = int(r.u32())
		e.Base = r.dur()
		r.counters(&e.Stats)
		e.Interfaces = int(r.u32())
	}
	a.pending = make([]netip.Addr, r.count(16))
	for i := range a.pending {
		a.pending[i] = r.addr()
	}
	source = r.bytes(r.count(1))
	enc := r.take(r.count(1))
	a.resumeInner = r.bytes(r.count(1))
	if hasInner != (len(a.resumeInner) > 0) {
		r.fail("inner-artifact flag mismatch")
	}
	if err := r.done("adaptive"); err != nil {
		return nil, nil, err
	}
	if a.total, err = probe.DecodeStore(enc); err != nil {
		return nil, nil, fmt.Errorf("%w: adaptive store: %v", ErrCheckpoint, err)
	}
	return a, source, nil
}

// ResumeAdaptive reconstructs a checkpointed adaptive campaign. The
// artifact is self-contained: rc.Source is a zero value of the original
// run's target source type, and its whole state — what it was built
// from included — is restored from the artifact. rc.DetectAliases
// rebuilds the between-epoch alias hook (nil disables detection on the
// resumed run; earlier verdicts are already folded into the source
// state); the rest of rc applies as for Resume. connOf must open
// connections over the same (or an identically seeded) vantage universe
// at the requested offsets from the adaptive origin —
// AdaptiveCampaign.Epoch exposes it. Run then continues the run
// exactly: the interrupted epoch finishes from its own embedded
// artifact, and generation resumes from the restored source.
func ResumeAdaptive(artifact []byte, rc ResumeConfig, connOf ConnFactory) (*AdaptiveCampaign, error) {
	if rc.Source == nil {
		return nil, fmt.Errorf("yarrp6: adaptive resume needs a target source")
	}
	sec, err := readSections(artifact)
	if err != nil {
		return nil, err
	}
	if sec.adaptive == nil {
		return nil, fmt.Errorf("%w: not an adaptive artifact; use Resume", ErrCheckpoint)
	}
	a, source, err := decodeAdaptive(sec.adaptive)
	if err != nil {
		return nil, err
	}
	if err := rc.Source.RestoreState(source); err != nil {
		return nil, fmt.Errorf("%w: source state: %v", ErrCheckpoint, err)
	}
	a.connOf = connOf
	rc.apply(&a.cfg.CampaignConfig)
	a.cfg.Source = rc.Source
	a.cfg.DetectAliases = rc.DetectAliases
	return a, nil
}
