// Campaign checkpoint artifacts.
//
// Yarrp6's statelessness means a shard's entire progress is one
// permutation cursor plus its result store; everything else a resumed
// run needs — clocks, codec epochs, counters, curve and progress
// series, in-flight replies — is small bookkeeping around that fact.
// Checkpoint serializes it all into one versioned artifact: a magic
// header followed by length-prefixed sections, each protected by its
// own CRC32, so truncation and corruption are detected per section
// with typed errors and the decoder never panics on arbitrary bytes
// (FuzzCheckpointDecode pins this). Resume reconstructs the campaign
// so that interrupt-at-any-instant plus resume reproduces the
// uninterrupted run byte for byte — stores, discovery curves, and
// progress streams alike — at any shard count and batch size.
//
// Router token-bucket levels ride along when the connection supports
// it: each shard section ends with an opaque simulator-state blob
// (probe.SimStateCheckpointer) that the resumed connection imports, so
// interrupt plus resume is byte-exact even when an ICMPv6 rate limiter
// was saturated across the interrupt instant.
package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net/netip"
	"slices"
	"time"

	"beholder/internal/probe"
	"beholder/internal/telemetry"
)

// checkpointMagic opens every artifact; the trailing digits are the
// format version, so a layout change bumps the magic itself.
const checkpointMagic = "Y6CKPT02"

// Artifact section types.
const (
	sectConfig   = 1
	sectShard    = 2
	sectAdaptive = 3
)

// Checkpoint decode errors. Every failure wraps ErrCheckpoint;
// corruption detected by a section checksum additionally wraps
// ErrCheckpointCRC.
var (
	ErrCheckpoint    = errors.New("yarrp6: invalid checkpoint artifact")
	ErrCheckpointCRC = errors.New("checksum mismatch")
)

// ErrNotCheckpointable reports that the campaign has no interrupted
// state to serialize: it has not run, ran to completion without an
// interrupt request, or was degraded by shard quarantine (recovery
// probers are not part of the artifact schema).
var ErrNotCheckpointable = errors.New("yarrp6: campaign is not checkpointable")

// resumeShard is one shard's decoded checkpoint state.
type resumeShard struct {
	done    bool
	stats   Stats
	rs      *shardResume // nil when done
	samples []telemetry.Sample
	// track and store are owned by the resumed campaign from here on:
	// RunContext installs them as the shard's own instead of copying.
	track *ifaceTimes // nil when the run kept no first-seen instants
	store *probe.Store
	// conn, when non-nil, is the live connection the shard state was
	// captured from (Campaign.Rewind): the resumed shard reuses it
	// instead of opening a fresh clone.
	conn probe.Conn
	// observer is the live shard's reply observer, carried across a
	// Rewind so that it goes on seeing every reply of the shard; nil for
	// artifact-decoded resumes. ResumeConfig.NewObserver overrides it.
	observer probe.Observer
}

// resumeState is a decoded artifact: the campaign shape plus every
// shard's state.
type resumeState struct {
	epoch  time.Duration
	shards []*resumeShard
}

// Checkpoint serializes the campaign's complete state after an
// interrupted RunContext (InterruptAt or context cancellation). The
// artifact captures per-shard permutation cursors, store snapshots,
// discovery-curve and progress series, counter deltas, and in-flight
// replies; Resume reconstructs a campaign that continues the run
// exactly. Quarantine-degraded campaigns are not checkpointable.
func (c *Campaign) Checkpoint() ([]byte, error) { return c.AppendCheckpoint(nil) }

// AppendCheckpoint is Checkpoint into a caller-supplied buffer: it
// appends the artifact to buf and returns the extended slice. Every
// section is encoded in place — header reserved, payload appended,
// length and CRC patched — so the shard stores are written exactly
// once, and a buffer with enough capacity makes the whole artifact
// allocation-free but for the index merges. Periodic checkpointing
// passes a retired artifact back in as the next buffer.
func (c *Campaign) AppendCheckpoint(buf []byte) ([]byte, error) {
	if err := c.checkpointable(); err != nil {
		return nil, err
	}
	// Size the buffer once: the bulky parts exactly, an allowance for each
	// shard's counters, curve and progress samples. Falling short would
	// only cost a regrowth.
	size := 4096 + 16*len(c.cfg.Targets)
	for _, ss := range c.shards {
		size += 16<<10 + ss.store.EncodedSize()
		if ss.track != nil {
			size += 24 * len(ss.track.seen)
		}
		if rs := ss.rs; rs != nil {
			size += len(rs.simState)
			for _, pr := range rs.pending {
				size += 12 + len(pr.data)
			}
		}
	}
	buf = slices.Grow(buf, size)
	buf = append(buf, checkpointMagic...)
	buf = appendSection(buf, sectConfig, c.appendConfig)
	for _, ss := range c.shards {
		buf = appendSection(buf, sectShard, func(b []byte) []byte { return c.appendShard(b, ss) })
	}
	return buf, nil
}

// checkpointable reports why the campaign's state cannot be carried
// forward, by artifact or by Rewind; nil when it can.
func (c *Campaign) checkpointable() error {
	if !c.keep || len(c.shards) == 0 {
		return ErrNotCheckpointable
	}
	if c.quarantined {
		return fmt.Errorf("%w: shards were quarantined", ErrNotCheckpointable)
	}
	return nil
}

// Rewind returns a fresh campaign that continues this interrupted run
// in-process — the same continuation Resume(Checkpoint(), ...) builds,
// without the serialize/decode round trip. The receiver hands its live
// shard state (stores, first-seen indexes, observers, permutation
// cursors, in-flight replies, simulator blobs) to the returned campaign
// by ownership, not by copy, and must not be run, checkpointed, merged,
// or rewound again. Periodic checkpointing wants this
// path: each snapshot cycle pays one serialization for the durable
// artifact, not a second full decode just to keep running. The
// continuation is byte-identical to the artifact round trip — both
// feed RunContext the state captured at the same probe boundary.
func (c *Campaign) Rewind(rc ResumeConfig, connOf ConnFactory) (*Campaign, error) {
	if err := c.checkpointable(); err != nil {
		return nil, err
	}
	state := &resumeState{epoch: c.epoch, shards: make([]*resumeShard, 0, len(c.shards))}
	for _, ss := range c.shards {
		sh := &resumeShard{done: ss.done, stats: ss.stats, store: ss.store, track: ss.track}
		if ss.done {
			if ss.prog != nil {
				sh.samples = ss.prog.Samples()
			}
		} else {
			rs := ss.rs
			if rs == nil {
				return nil, ErrNotCheckpointable
			}
			// Mirror decodeShard: the capture's stats double as the
			// restored run state for a live shard.
			rs.stats = ss.stats
			rs.notMine = ss.stats.NotMine
			rs.live = true
			sh.samples = rs.samples
			sh.rs = rs
			sh.conn = ss.conn
			sh.observer = ss.observer
		}
		state.shards = append(state.shards, sh)
	}
	cfg := c.cfg
	cfg.NewObserver = rc.NewObserver
	cfg.Telemetry = rc.Telemetry
	cfg.InterruptAt = rc.InterruptAt
	if cfg.Progress != nil {
		cfg.Progress = &ProgressConfig{Writer: rc.ProgressWriter, SampleEvery: c.slots, PerShard: rc.ProgressPerShard}
	}
	return &Campaign{cfg: cfg, connOf: connOf, epoch: c.epoch, res: state}, nil
}

// appendSection frames one section in place: it reserves the header,
// lets encode append the payload, then patches the payload's length and
// CRC into the header.
func appendSection(buf []byte, typ byte, encode func([]byte) []byte) []byte {
	buf = append(buf, typ, 0, 0, 0, 0, 0, 0, 0, 0)
	start := len(buf)
	buf = encode(buf)
	binary.LittleEndian.PutUint32(buf[start-8:], uint32(len(buf)-start))
	binary.LittleEndian.PutUint32(buf[start-4:], crc32.ChecksumIEEE(buf[start:]))
	return buf
}

// appendStore appends a store's encoding behind its u32 length, encoded
// in place and the length patched afterwards.
func appendStore(buf []byte, s *probe.Store) []byte {
	buf = append(buf, 0, 0, 0, 0)
	start := len(buf)
	buf = s.AppendBinary(buf)
	binary.LittleEndian.PutUint32(buf[start-4:], uint32(len(buf)-start))
	return buf
}

func (c *Campaign) appendConfig(buf []byte) []byte {
	cfg := &c.cfg
	var flags byte
	if cfg.RecordPaths {
		flags |= 1
	}
	if cfg.Fill {
		flags |= 2
	}
	if cfg.Progress != nil {
		flags |= 4
	}
	buf = appendTuning(append(buf, flags), cfg)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(c.epoch))
	buf = binary.LittleEndian.AppendUint64(buf, c.slots)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(cfg.Targets)))
	for _, t := range cfg.Targets {
		t16 := t.As16()
		buf = append(buf, t16[:]...)
	}
	return buf
}

// appendTuning appends the probing parameters every config-bearing
// section carries behind its own flag byte, MinTTL through DrainTimeout;
// ckReader.tuning is its decoder.
func appendTuning(buf []byte, cfg *CampaignConfig) []byte {
	buf = append(buf, cfg.MinTTL, cfg.MaxTTL, cfg.Proto, cfg.Instance, cfg.FillLimit, cfg.NeighborhoodTTL)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(cfg.PPS))
	buf = binary.LittleEndian.AppendUint64(buf, cfg.Key)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(cfg.Shards))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(cfg.Batch))
	buf = appendDur(buf, cfg.NeighborhoodWindow)
	return appendDur(buf, cfg.DrainTimeout)
}

// appendCounters appends a Stats' counters and elapsed time (not its
// curve); ckReader.counters is its decoder.
func appendCounters(buf []byte, st *Stats) []byte {
	for _, n := range []int64{st.ProbesSent, st.Fills, st.Skipped, st.Replies, st.NotMine, st.Retries} {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(n))
	}
	return appendDur(buf, st.Elapsed)
}

func (c *Campaign) appendShard(buf []byte, ss *shardState) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(ss.index))
	done := byte(0)
	if ss.done {
		done = 1
	}
	buf = append(buf, done)
	rs := ss.rs
	if rs == nil {
		rs = &shardResume{}
	}
	buf = binary.LittleEndian.AppendUint64(buf, rs.cursor)
	buf = appendDur(buf, rs.epoch)
	buf = appendDur(buf, rs.now)
	buf = appendDur(buf, rs.drainDeadline)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(rs.nextCurve))

	buf = appendCounters(buf, &ss.stats)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ss.stats.Curve)))
	for _, p := range ss.stats.Curve {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(p.Probes))
		buf = appendDur(buf, p.At)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(p.Interfaces))
	}
	for _, k := range rs.kindCount {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(k))
	}
	nLast := 0
	for _, at := range rs.lastNew {
		if at != 0 {
			nLast++
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(nLast))
	for ttl, at := range rs.lastNew {
		if at != 0 {
			buf = append(buf, byte(ttl))
			buf = appendDur(buf, at)
		}
	}
	samples := rs.samples
	if ss.done && ss.prog != nil {
		samples = ss.prog.Samples()
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(samples)))
	for _, s := range samples {
		buf = appendDur(buf, s.At)
		buf = appendDur(buf, time.Duration(s.Probes))
		buf = appendDur(buf, time.Duration(s.Fills))
		buf = appendDur(buf, time.Duration(s.Replies))
		buf = appendDur(buf, time.Duration(s.TimeExceeded))
		buf = appendDur(buf, time.Duration(s.EchoReplies))
		buf = appendDur(buf, time.Duration(s.DestUnreach))
		buf = appendDur(buf, time.Duration(s.TCPRsts))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rs.pending)))
	for _, pr := range rs.pending {
		buf = appendDur(buf, pr.at)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(pr.data)))
		buf = append(buf, pr.data...)
	}
	if ss.track != nil {
		buf = append(buf, 1)
		seen := ss.track.sortedSeen()
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(seen)))
		for _, e := range seen {
			a16 := e.addr.As16()
			buf = append(buf, a16[:]...)
			buf = appendDur(buf, e.at)
		}
	} else {
		buf = append(buf, 0)
	}
	buf = appendStore(buf, ss.store)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rs.simState)))
	return append(buf, rs.simState...)
}

func appendDur(buf []byte, d time.Duration) []byte {
	return binary.LittleEndian.AppendUint64(buf, uint64(d))
}

// ResumeConfig supplies the non-serializable halves of a resumed
// campaign — observers, telemetry, progress output — plus an optional
// new interrupt instant for chained checkpointing.
type ResumeConfig struct {
	// NewObserver rebuilds per-shard observers. Resumed shards only see
	// replies arriving after the resume instant; derive streaming
	// artifacts from the merged store (graph.FromStore) instead. When it
	// is nil, a Resume runs without observers, while a Rewind keeps each
	// live shard's observer — which has seen every reply of the shard so
	// far and goes on seeing the rest.
	NewObserver func(shard int) probe.Observer
	// Telemetry receives the resumed run's metrics. Restored counter
	// totals replay into it on the first flush, so its final state
	// matches an uninterrupted run's registry.
	Telemetry *telemetry.Registry
	// ProgressWriter receives the full progress NDJSON stream when the
	// original campaign had progress enabled (ignored otherwise): the
	// restored pre-interrupt samples and the resumed run's together,
	// byte-identical to the uninterrupted stream.
	ProgressWriter io.Writer
	// ProgressPerShard adds the per-shard window records to the stream.
	ProgressPerShard bool
	// InterruptAt, when nonzero, interrupts the resumed run in turn at
	// that instant (relative to the original campaign epoch), allowing
	// checkpoint chains.
	InterruptAt time.Duration
}

// Resume reconstructs a checkpointed campaign. connOf must produce
// connections over the same (or an identically seeded) vantage universe
// as the original run, opening each shard's clock at the requested
// offset from the original campaign epoch — Campaign.Epoch exposes it.
// RunContext then continues the run exactly where Checkpoint cut it.
func Resume(artifact []byte, rc ResumeConfig, connOf ConnFactory) (*Campaign, error) {
	sec, err := readSections(artifact)
	if err != nil {
		return nil, err
	}
	if sec.adaptive != nil {
		return nil, fmt.Errorf("%w: adaptive artifact; use ResumeAdaptive", ErrCheckpoint)
	}
	cfg := sec.cfg
	state := &resumeState{epoch: sec.epoch}
	for i, payload := range sec.shards {
		sh, idx, err := decodeShard(payload)
		if err != nil {
			return nil, err
		}
		if idx != i {
			return nil, fmt.Errorf("%w: shard %d out of order", ErrCheckpoint, idx)
		}
		state.shards = append(state.shards, sh)
	}
	if sec.hasProg {
		cfg.Progress = &ProgressConfig{Writer: rc.ProgressWriter, SampleEvery: sec.slots, PerShard: rc.ProgressPerShard}
	}
	cfg.NewObserver = rc.NewObserver
	cfg.Telemetry = rc.Telemetry
	cfg.InterruptAt = rc.InterruptAt
	return &Campaign{cfg: cfg, connOf: connOf, epoch: state.epoch, res: state}, nil
}

// sections is an artifact taken apart by readSections: either a campaign
// — its decoded config section plus one payload per shard — or a lone
// adaptive payload. The payloads alias the artifact and are CRC-verified
// but not yet parsed.
type sections struct {
	cfg      CampaignConfig
	epoch    time.Duration
	slots    uint64
	hasProg  bool
	shards   [][]byte
	adaptive []byte // nil for a campaign artifact
}

// readSections is the one artifact reader, the mirror of appendSection:
// it checks the magic, walks the [type][u32 len][u32 crc][payload]
// frames verifying each checksum, and enforces the container's shape — a
// config section first and exactly one shard section per configured
// shard, or an adaptive section alone. Resume, ResumeAdaptive and
// InspectCheckpoint all start here.
func readSections(artifact []byte) (*sections, error) {
	rest, ok := bytes.CutPrefix(artifact, []byte(checkpointMagic))
	if !ok {
		return nil, fmt.Errorf("%w: bad magic", ErrCheckpoint)
	}
	sec := &sections{}
	gotCfg := false
	for len(rest) > 0 {
		if len(rest) < 9 {
			return nil, fmt.Errorf("%w: truncated section header", ErrCheckpoint)
		}
		typ := rest[0]
		n := binary.LittleEndian.Uint32(rest[1:])
		sum := binary.LittleEndian.Uint32(rest[5:])
		rest = rest[9:]
		if uint64(n) > uint64(len(rest)) {
			return nil, fmt.Errorf("%w: section %d length %d exceeds input", ErrCheckpoint, typ, n)
		}
		payload := rest[:n]
		rest = rest[n:]
		if crc32.ChecksumIEEE(payload) != sum {
			return nil, fmt.Errorf("%w: section %d: %w", ErrCheckpoint, typ, ErrCheckpointCRC)
		}
		if sec.adaptive != nil || typ == sectAdaptive && gotCfg {
			return nil, fmt.Errorf("%w: adaptive section must be the artifact's only section", ErrCheckpoint)
		}
		switch typ {
		case sectConfig:
			if gotCfg {
				return nil, fmt.Errorf("%w: duplicate config section", ErrCheckpoint)
			}
			if err := sec.decodeConfig(payload); err != nil {
				return nil, err
			}
			gotCfg = true
		case sectShard:
			if !gotCfg {
				return nil, fmt.Errorf("%w: shard section before config", ErrCheckpoint)
			}
			sec.shards = append(sec.shards, payload)
		case sectAdaptive:
			sec.adaptive = payload
		default:
			return nil, fmt.Errorf("%w: unknown section type %d", ErrCheckpoint, typ)
		}
	}
	if sec.adaptive != nil {
		return sec, nil
	}
	if !gotCfg {
		return nil, fmt.Errorf("%w: missing config section", ErrCheckpoint)
	}
	if len(sec.shards) != sec.cfg.Shards {
		return nil, fmt.Errorf("%w: %d shard sections for %d shards", ErrCheckpoint, len(sec.shards), sec.cfg.Shards)
	}
	return sec, nil
}

// ckReader is a bounds-checked cursor over an untrusted artifact
// payload.
type ckReader struct {
	buf []byte
	off int
}

func (r *ckReader) need(n int) error {
	if len(r.buf)-r.off < n {
		return fmt.Errorf("%w: truncated payload at offset %d", ErrCheckpoint, r.off)
	}
	return nil
}

func (r *ckReader) u8() (byte, error) {
	if err := r.need(1); err != nil {
		return 0, err
	}
	b := r.buf[r.off]
	r.off++
	return b, nil
}

func (r *ckReader) u32() (uint32, error) {
	if err := r.need(4); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v, nil
}

func (r *ckReader) u64() (uint64, error) {
	if err := r.need(8); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v, nil
}

func (r *ckReader) dur() (time.Duration, error) {
	v, err := r.u64()
	return time.Duration(v), err
}

func (r *ckReader) i64() (int64, error) {
	v, err := r.u64()
	return int64(v), err
}

// count reads a length prefix and rejects values that cannot fit in the
// remaining payload, so corrupt lengths fail fast instead of driving
// huge allocations.
func (r *ckReader) count(elemMin int) (int, error) {
	v, err := r.u32()
	if err != nil {
		return 0, err
	}
	if int64(v)*int64(elemMin) > int64(len(r.buf)-r.off) {
		return 0, fmt.Errorf("%w: implausible count %d at offset %d", ErrCheckpoint, v, r.off)
	}
	return int(v), nil
}

func (r *ckReader) addr() (netip.Addr, error) {
	if err := r.need(16); err != nil {
		return netip.Addr{}, err
	}
	var a16 [16]byte
	copy(a16[:], r.buf[r.off:])
	r.off += 16
	return netip.AddrFrom16(a16), nil
}

func (r *ckReader) bytes(n int) ([]byte, error) {
	if err := r.need(n); err != nil {
		return nil, err
	}
	b := append([]byte(nil), r.buf[r.off:r.off+n]...)
	r.off += n
	return b, nil
}

// tuning decodes the block appendTuning wrote.
func (r *ckReader) tuning(cfg *CampaignConfig) (err error) {
	for _, f := range []*uint8{&cfg.MinTTL, &cfg.MaxTTL, &cfg.Proto, &cfg.Instance, &cfg.FillLimit, &cfg.NeighborhoodTTL} {
		if *f, err = r.u8(); err != nil {
			return err
		}
	}
	pps, err := r.u64()
	if err != nil {
		return err
	}
	cfg.PPS = math.Float64frombits(pps)
	if cfg.PPS <= 0 || math.IsNaN(cfg.PPS) || math.IsInf(cfg.PPS, 0) {
		return fmt.Errorf("%w: invalid PPS", ErrCheckpoint)
	}
	if cfg.Key, err = r.u64(); err != nil {
		return err
	}
	shards, err := r.u32()
	if err != nil {
		return err
	}
	if shards == 0 || shards > 1<<16 {
		return fmt.Errorf("%w: invalid shard count %d", ErrCheckpoint, shards)
	}
	cfg.Shards = int(shards)
	batch, err := r.u32()
	if err != nil {
		return err
	}
	cfg.Batch = int(batch)
	if cfg.NeighborhoodWindow, err = r.dur(); err != nil {
		return err
	}
	cfg.DrainTimeout, err = r.dur()
	return err
}

// counters decodes the block appendCounters wrote.
func (r *ckReader) counters(st *Stats) (err error) {
	for _, f := range []*int64{&st.ProbesSent, &st.Fills, &st.Skipped, &st.Replies, &st.NotMine, &st.Retries} {
		if *f, err = r.i64(); err != nil {
			return err
		}
	}
	st.Elapsed, err = r.dur()
	return err
}

func (sec *sections) decodeConfig(payload []byte) error {
	cfg := &sec.cfg
	r := ckReader{buf: payload}
	flags, err := r.u8()
	if err != nil {
		return err
	}
	cfg.RecordPaths = flags&1 != 0
	cfg.Fill = flags&2 != 0
	sec.hasProg = flags&4 != 0
	if err = r.tuning(cfg); err != nil {
		return err
	}
	if sec.epoch, err = r.dur(); err != nil {
		return err
	}
	if sec.slots, err = r.u64(); err != nil {
		return err
	}
	nt, err := r.count(16)
	if err != nil {
		return err
	}
	cfg.Targets = make([]netip.Addr, nt)
	for i := range cfg.Targets {
		if cfg.Targets[i], err = r.addr(); err != nil {
			return err
		}
	}
	if r.off != len(payload) {
		return fmt.Errorf("%w: %d trailing config bytes", ErrCheckpoint, len(payload)-r.off)
	}
	return nil
}

func decodeShard(payload []byte) (*resumeShard, int, error) {
	r := ckReader{buf: payload}
	idx32, err := r.u32()
	if err != nil {
		return nil, 0, err
	}
	doneB, err := r.u8()
	if err != nil {
		return nil, 0, err
	}
	sh := &resumeShard{done: doneB != 0}
	rs := &shardResume{}
	if rs.cursor, err = r.u64(); err != nil {
		return nil, 0, err
	}
	if rs.epoch, err = r.dur(); err != nil {
		return nil, 0, err
	}
	if rs.now, err = r.dur(); err != nil {
		return nil, 0, err
	}
	if rs.drainDeadline, err = r.dur(); err != nil {
		return nil, 0, err
	}
	nc, err := r.u64()
	if err != nil {
		return nil, 0, err
	}
	rs.nextCurve = int64(nc)
	if err = r.counters(&sh.stats); err != nil {
		return nil, 0, err
	}
	ncurve, err := r.count(20)
	if err != nil {
		return nil, 0, err
	}
	sh.stats.Curve = make([]CurvePoint, ncurve)
	for i := range sh.stats.Curve {
		p := &sh.stats.Curve[i]
		if p.Probes, err = r.i64(); err != nil {
			return nil, 0, err
		}
		if p.At, err = r.dur(); err != nil {
			return nil, 0, err
		}
		ifaces, err := r.u32()
		if err != nil {
			return nil, 0, err
		}
		p.Interfaces = int(ifaces)
	}
	for i := range rs.kindCount {
		if rs.kindCount[i], err = r.i64(); err != nil {
			return nil, 0, err
		}
	}
	nLast, err := r.count(9)
	if err != nil {
		return nil, 0, err
	}
	for i := 0; i < nLast; i++ {
		ttl, err := r.u8()
		if err != nil {
			return nil, 0, err
		}
		if rs.lastNew[ttl], err = r.dur(); err != nil {
			return nil, 0, err
		}
	}
	nSamples, err := r.count(64)
	if err != nil {
		return nil, 0, err
	}
	sh.samples = make([]telemetry.Sample, nSamples)
	for i := range sh.samples {
		s := &sh.samples[i]
		if s.At, err = r.dur(); err != nil {
			return nil, 0, err
		}
		ints := []*int64{&s.Probes, &s.Fills, &s.Replies, &s.TimeExceeded, &s.EchoReplies, &s.DestUnreach, &s.TCPRsts}
		for _, f := range ints {
			if *f, err = r.i64(); err != nil {
				return nil, 0, err
			}
		}
	}
	nPend, err := r.count(12)
	if err != nil {
		return nil, 0, err
	}
	for i := 0; i < nPend; i++ {
		at, err := r.dur()
		if err != nil {
			return nil, 0, err
		}
		n, err := r.count(1)
		if err != nil {
			return nil, 0, err
		}
		data, err := r.bytes(n)
		if err != nil {
			return nil, 0, err
		}
		rs.pending = append(rs.pending, pendingReply{at: at, data: data})
	}
	hasSeen, err := r.u8()
	if err != nil {
		return nil, 0, err
	}
	if hasSeen != 0 {
		nSeen, err := r.count(24)
		if err != nil {
			return nil, 0, err
		}
		sh.track = newIfaceTimes(nSeen)
		for i := 0; i < nSeen; i++ {
			a, err := r.addr()
			if err != nil {
				return nil, 0, err
			}
			at, err := r.dur()
			if err != nil {
				return nil, 0, err
			}
			sh.track.add(a, at)
		}
	}
	nStore, err := r.count(1)
	if err != nil {
		return nil, 0, err
	}
	enc, err := r.bytes(nStore)
	if err != nil {
		return nil, 0, err
	}
	if sh.store, err = probe.DecodeStore(enc); err != nil {
		return nil, 0, fmt.Errorf("%w: shard store: %v", ErrCheckpoint, err)
	}
	// The simulator-state blob closes the section.
	nSim, err := r.count(1)
	if err != nil {
		return nil, 0, err
	}
	if rs.simState, err = r.bytes(nSim); err != nil {
		return nil, 0, err
	}
	if r.off != len(payload) {
		return nil, 0, fmt.Errorf("%w: %d trailing shard bytes", ErrCheckpoint, len(payload)-r.off)
	}
	if !sh.done {
		// Restore the full interrupted-run state. The curve, counters,
		// and samples live in the resume capture; stats doubles as the
		// merge-time view for done shards only.
		rs.stats = sh.stats
		rs.notMine = sh.stats.NotMine
		rs.samples = sh.samples
		sh.rs = rs
	}
	return sh, int(idx32), nil
}
