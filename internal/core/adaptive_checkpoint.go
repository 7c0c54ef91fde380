// Adaptive checkpoint artifacts: the generation loop's state rides in
// the same versioned container as campaign checkpoints. An adaptive
// artifact is the magic followed by a single sectAdaptive section whose
// payload carries the epoch cursor, the per-epoch statistics, the
// serialized target-source state, the accumulated store, the pending
// boundary-generated targets, and — when the interrupt landed mid-epoch
// — the inner campaign's own complete artifact embedded verbatim.
package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"net/netip"
	"time"

	"beholder/internal/probe"
	"beholder/internal/telemetry"
)

// Checkpoint serializes the adaptive run's complete state after an
// interrupted RunContext: generation state, accumulated results, and
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
	buf = append(buf, flags, cfg.MinTTL, cfg.MaxTTL, cfg.Proto, cfg.Instance, cfg.FillLimit, cfg.NeighborhoodTTL)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(cfg.PPS))
	buf = binary.LittleEndian.AppendUint64(buf, cfg.Key)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(cfg.Shards))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(cfg.Batch))
	buf = appendDur(buf, cfg.NeighborhoodWindow)
	buf = appendDur(buf, cfg.DrainTimeout)
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
		st := e.Stats
		buf = appendDur(buf, time.Duration(st.ProbesSent))
		buf = appendDur(buf, time.Duration(st.Fills))
		buf = appendDur(buf, time.Duration(st.Skipped))
		buf = appendDur(buf, time.Duration(st.Replies))
		buf = appendDur(buf, time.Duration(st.NotMine))
		buf = appendDur(buf, time.Duration(st.Retries))
		buf = appendDur(buf, st.Elapsed)
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

// adaptiveState is a decoded adaptive section.
type adaptiveState struct {
	cfg     AdaptiveConfig // template; Source and hooks unset
	epoch   int
	base    time.Duration
	origin  time.Duration
	spent   int64
	epochs  []EpochStats
	pending []netip.Addr
	source  []byte
	total   *probe.Store
	inner   []byte
}

func decodeAdaptive(payload []byte) (*adaptiveState, error) {
	st := &adaptiveState{}
	cfg := &st.cfg
	r := ckReader{buf: payload}
	flags, err := r.u8()
	if err != nil {
		return nil, err
	}
	hasInner := flags&1 != 0
	cfg.Fill = flags&2 != 0
	cfg.RecordPaths = flags&4 != 0
	fields := []*uint8{&cfg.MinTTL, &cfg.MaxTTL, &cfg.Proto, &cfg.Instance, &cfg.FillLimit, &cfg.NeighborhoodTTL}
	for _, f := range fields {
		if *f, err = r.u8(); err != nil {
			return nil, err
		}
	}
	pps, err := r.u64()
	if err != nil {
		return nil, err
	}
	cfg.PPS = math.Float64frombits(pps)
	if cfg.PPS <= 0 || math.IsNaN(cfg.PPS) || math.IsInf(cfg.PPS, 0) {
		return nil, fmt.Errorf("%w: invalid PPS", ErrCheckpoint)
	}
	if cfg.Key, err = r.u64(); err != nil {
		return nil, err
	}
	shards, err := r.u32()
	if err != nil {
		return nil, err
	}
	if shards == 0 || shards > 1<<16 {
		return nil, fmt.Errorf("%w: invalid shard count %d", ErrCheckpoint, shards)
	}
	cfg.Shards = int(shards)
	batch, err := r.u32()
	if err != nil {
		return nil, err
	}
	cfg.Batch = int(batch)
	if cfg.NeighborhoodWindow, err = r.dur(); err != nil {
		return nil, err
	}
	if cfg.DrainTimeout, err = r.dur(); err != nil {
		return nil, err
	}
	budget, err := r.u64()
	if err != nil {
		return nil, err
	}
	cfg.Budget = int64(budget)
	et, err := r.u32()
	if err != nil {
		return nil, err
	}
	cfg.EpochTargets = int(et)
	me, err := r.u32()
	if err != nil {
		return nil, err
	}
	cfg.MaxEpochs = int(me)
	if me == 0 || cfg.EpochTargets <= 0 {
		return nil, fmt.Errorf("%w: invalid adaptive bounds", ErrCheckpoint)
	}
	ep, err := r.u32()
	if err != nil {
		return nil, err
	}
	st.epoch = int(ep)
	if st.base, err = r.dur(); err != nil {
		return nil, err
	}
	if st.origin, err = r.dur(); err != nil {
		return nil, err
	}
	if st.spent, err = r.i64(); err != nil {
		return nil, err
	}
	nEpochs, err := r.count(68)
	if err != nil {
		return nil, err
	}
	st.epochs = make([]EpochStats, nEpochs)
	for i := range st.epochs {
		e := &st.epochs[i]
		e.Epoch = i
		tn, err := r.u32()
		if err != nil {
			return nil, err
		}
		e.Targets = int(tn)
		if e.Base, err = r.dur(); err != nil {
			return nil, err
		}
		ints := []*int64{&e.Stats.ProbesSent, &e.Stats.Fills, &e.Stats.Skipped, &e.Stats.Replies, &e.Stats.NotMine, &e.Stats.Retries}
		for _, f := range ints {
			if *f, err = r.i64(); err != nil {
				return nil, err
			}
		}
		if e.Stats.Elapsed, err = r.dur(); err != nil {
			return nil, err
		}
		ifaces, err := r.u32()
		if err != nil {
			return nil, err
		}
		e.Interfaces = int(ifaces)
	}
	nPend, err := r.count(16)
	if err != nil {
		return nil, err
	}
	st.pending = make([]netip.Addr, nPend)
	for i := range st.pending {
		if st.pending[i], err = r.addr(); err != nil {
			return nil, err
		}
	}
	nSrc, err := r.count(1)
	if err != nil {
		return nil, err
	}
	if st.source, err = r.bytes(nSrc); err != nil {
		return nil, err
	}
	nStore, err := r.count(1)
	if err != nil {
		return nil, err
	}
	enc, err := r.bytes(nStore)
	if err != nil {
		return nil, err
	}
	if st.total, err = probe.DecodeStore(enc); err != nil {
		return nil, fmt.Errorf("%w: adaptive store: %v", ErrCheckpoint, err)
	}
	nInner, err := r.count(1)
	if err != nil {
		return nil, err
	}
	if st.inner, err = r.bytes(nInner); err != nil {
		return nil, err
	}
	if hasInner != (len(st.inner) > 0) {
		return nil, fmt.Errorf("%w: inner-artifact flag mismatch", ErrCheckpoint)
	}
	if r.off != len(payload) {
		return nil, fmt.Errorf("%w: %d trailing adaptive bytes", ErrCheckpoint, len(payload)-r.off)
	}
	return st, nil
}

// AdaptiveResumeConfig supplies the non-serializable halves of a
// resumed adaptive campaign.
type AdaptiveResumeConfig struct {
	// Source is a freshly constructed target source built from the same
	// parameters (seeds, configuration) as the original run's; its
	// generation state is restored from the artifact. Required.
	Source TargetSource
	// DetectAliases rebuilds the between-epoch alias hook; nil disables
	// detection on the resumed run (the original run's verdicts are
	// already folded into the source state).
	DetectAliases func(epoch int, store *probe.Store) []netip.Prefix
	// NewObserver rebuilds per-shard observers for the remaining epochs.
	NewObserver func(shard int) probe.Observer
	// Telemetry receives the resumed run's metrics.
	Telemetry *telemetry.Registry
	// InterruptAt, when nonzero, interrupts the resumed run in turn at
	// that instant (relative to the adaptive run's origin), allowing
	// checkpoint chains.
	InterruptAt time.Duration
}

// ResumeAdaptive reconstructs a checkpointed adaptive campaign. connOf
// must open connections over the same (or an identically seeded)
// vantage universe at the requested offsets from the adaptive origin —
// AdaptiveCampaign.Epoch exposes it. RunContext then continues the run
// exactly: the interrupted epoch finishes from its own embedded
// artifact, and generation resumes from the restored source state.
func ResumeAdaptive(artifact []byte, rc AdaptiveResumeConfig, connOf ConnFactory) (*AdaptiveCampaign, error) {
	if rc.Source == nil {
		return nil, fmt.Errorf("yarrp6: adaptive resume needs a target source")
	}
	version, rest, err := checkpointVersion(artifact)
	if err != nil {
		return nil, err
	}
	if version < 2 {
		return nil, fmt.Errorf("%w: adaptive campaigns need a version-02 artifact", ErrCheckpoint)
	}
	if len(rest) < 9 {
		return nil, fmt.Errorf("%w: truncated section header", ErrCheckpoint)
	}
	typ := rest[0]
	n := binary.LittleEndian.Uint32(rest[1:])
	sum := binary.LittleEndian.Uint32(rest[5:])
	rest = rest[9:]
	if typ != sectAdaptive {
		return nil, fmt.Errorf("%w: not an adaptive artifact; use Resume", ErrCheckpoint)
	}
	if uint64(n) != uint64(len(rest)) {
		return nil, fmt.Errorf("%w: adaptive section length %d for %d payload bytes", ErrCheckpoint, n, len(rest))
	}
	if crc32.ChecksumIEEE(rest) != sum {
		return nil, fmt.Errorf("%w: section %d: %w", ErrCheckpoint, typ, ErrCheckpointCRC)
	}
	st, err := decodeAdaptive(rest)
	if err != nil {
		return nil, err
	}
	if err := rc.Source.RestoreState(st.source); err != nil {
		return nil, fmt.Errorf("%w: source state: %v", ErrCheckpoint, err)
	}
	cfg := st.cfg
	cfg.Source = rc.Source
	cfg.DetectAliases = rc.DetectAliases
	cfg.NewObserver = rc.NewObserver
	cfg.Telemetry = rc.Telemetry
	cfg.InterruptAt = rc.InterruptAt
	return &AdaptiveCampaign{
		cfg:         cfg,
		connOf:      connOf,
		epoch:       st.epoch,
		base:        st.base,
		origin:      st.origin,
		originSet:   true,
		spent:       st.spent,
		total:       st.total,
		epochs:      st.epochs,
		pending:     st.pending,
		resumeInner: st.inner,
		resumed:     true,
	}, nil
}

// IsAdaptiveCheckpoint reports whether the artifact is an adaptive one
// (ResumeAdaptive) rather than a campaign one (Resume), without full
// validation.
func IsAdaptiveCheckpoint(artifact []byte) bool {
	_, rest, err := checkpointVersion(artifact)
	return err == nil && len(rest) > 0 && rest[0] == sectAdaptive
}
