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
// was saturated across the interrupt instant. Version-01 artifacts lack
// the blob; resuming one falls back to prime replay of the schedule
// preceding the cursor (probe.Primer), which is exact for non-fill
// runs.
package core

import (
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
// format version, so a layout change bumps the magic itself. Version 02
// added the per-shard simulator-state blob (router token-bucket levels)
// and the adaptive-campaign section; version 01 artifacts still decode
// (their shards carry no blob, so blob-less resume semantics apply).
const (
	checkpointMagic   = "Y6CKPT02"
	checkpointMagicV1 = "Y6CKPT01"
)

// checkpointVersion validates the artifact magic, returning the format
// version and the remaining section bytes.
func checkpointVersion(artifact []byte) (int, []byte, error) {
	if len(artifact) >= len(checkpointMagic) {
		switch string(artifact[:len(checkpointMagic)]) {
		case checkpointMagic:
			return 2, artifact[len(checkpointMagic):], nil
		case checkpointMagicV1:
			return 1, artifact[len(checkpointMagic):], nil
		}
	}
	return 0, nil, fmt.Errorf("%w: bad magic", ErrCheckpoint)
}

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
	// instead of opening a fresh clone, keeping the simulator's flow-plan
	// and template caches warm across a periodic checkpoint.
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
	// tmpl carries the campaign's shared probe-template store across an
	// in-process Rewind so rebuilt shard codecs skip re-deriving every
	// target's template. Nil for artifact-decoded resumes.
	tmpl *probe.TmplStore
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
	if !c.keep || len(c.shards) == 0 {
		return nil, ErrNotCheckpointable
	}
	if c.quarantined {
		return nil, fmt.Errorf("%w: shards were quarantined", ErrNotCheckpointable)
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
	if !c.keep || len(c.shards) == 0 {
		return nil, ErrNotCheckpointable
	}
	if c.quarantined {
		return nil, fmt.Errorf("%w: shards were quarantined", ErrNotCheckpointable)
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
	state.tmpl = c.tmpl
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
	buf = append(buf, flags, cfg.MinTTL, cfg.MaxTTL, cfg.Proto, cfg.Instance, cfg.FillLimit, cfg.NeighborhoodTTL)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(cfg.PPS))
	buf = binary.LittleEndian.AppendUint64(buf, cfg.Key)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(cfg.Shards))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(cfg.Batch))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(cfg.NeighborhoodWindow))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(cfg.DrainTimeout))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(c.epoch))
	buf = binary.LittleEndian.AppendUint64(buf, c.slots)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(cfg.Targets)))
	for _, t := range cfg.Targets {
		t16 := t.As16()
		buf = append(buf, t16[:]...)
	}
	return buf
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

	st := ss.stats
	buf = appendDur(buf, time.Duration(st.ProbesSent))
	buf = appendDur(buf, time.Duration(st.Fills))
	buf = appendDur(buf, time.Duration(st.Skipped))
	buf = appendDur(buf, time.Duration(st.Replies))
	buf = appendDur(buf, time.Duration(st.NotMine))
	buf = appendDur(buf, time.Duration(st.Retries))
	buf = appendDur(buf, st.Elapsed)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(st.Curve)))
	for _, p := range st.Curve {
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
	version, rest, err := checkpointVersion(artifact)
	if err != nil {
		return nil, err
	}
	var (
		cfg     CampaignConfig
		state   resumeState
		slots   uint64
		hasProg bool
		gotCfg  bool
	)
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
		switch typ {
		case sectConfig:
			if gotCfg {
				return nil, fmt.Errorf("%w: duplicate config section", ErrCheckpoint)
			}
			var err error
			if slots, hasProg, err = decodeConfig(payload, &cfg, &state); err != nil {
				return nil, err
			}
			gotCfg = true
		case sectShard:
			if !gotCfg {
				return nil, fmt.Errorf("%w: shard section before config", ErrCheckpoint)
			}
			sh, idx, err := decodeShard(payload, version)
			if err != nil {
				return nil, err
			}
			if idx != len(state.shards) || idx >= cfg.Shards {
				return nil, fmt.Errorf("%w: shard %d out of order", ErrCheckpoint, idx)
			}
			state.shards = append(state.shards, sh)
		case sectAdaptive:
			return nil, fmt.Errorf("%w: adaptive artifact; use ResumeAdaptive", ErrCheckpoint)
		default:
			return nil, fmt.Errorf("%w: unknown section type %d", ErrCheckpoint, typ)
		}
	}
	if !gotCfg {
		return nil, fmt.Errorf("%w: missing config section", ErrCheckpoint)
	}
	if len(state.shards) != cfg.Shards {
		return nil, fmt.Errorf("%w: %d shard sections for %d shards", ErrCheckpoint, len(state.shards), cfg.Shards)
	}
	if hasProg {
		cfg.Progress = &ProgressConfig{Writer: rc.ProgressWriter, SampleEvery: slots, PerShard: rc.ProgressPerShard}
	}
	cfg.NewObserver = rc.NewObserver
	cfg.Telemetry = rc.Telemetry
	cfg.InterruptAt = rc.InterruptAt
	return &Campaign{cfg: cfg, connOf: connOf, epoch: state.epoch, res: &state}, nil
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

func decodeConfig(payload []byte, cfg *CampaignConfig, state *resumeState) (slots uint64, hasProg bool, err error) {
	r := ckReader{buf: payload}
	flags, err := r.u8()
	if err != nil {
		return 0, false, err
	}
	cfg.RecordPaths = flags&1 != 0
	cfg.Fill = flags&2 != 0
	hasProg = flags&4 != 0
	fields := []*uint8{&cfg.MinTTL, &cfg.MaxTTL, &cfg.Proto, &cfg.Instance, &cfg.FillLimit, &cfg.NeighborhoodTTL}
	for _, f := range fields {
		if *f, err = r.u8(); err != nil {
			return 0, false, err
		}
	}
	pps, err := r.u64()
	if err != nil {
		return 0, false, err
	}
	cfg.PPS = math.Float64frombits(pps)
	if cfg.PPS <= 0 || math.IsNaN(cfg.PPS) || math.IsInf(cfg.PPS, 0) {
		return 0, false, fmt.Errorf("%w: invalid PPS", ErrCheckpoint)
	}
	if cfg.Key, err = r.u64(); err != nil {
		return 0, false, err
	}
	shards, err := r.u32()
	if err != nil {
		return 0, false, err
	}
	if shards == 0 || shards > 1<<16 {
		return 0, false, fmt.Errorf("%w: invalid shard count %d", ErrCheckpoint, shards)
	}
	cfg.Shards = int(shards)
	batch, err := r.u32()
	if err != nil {
		return 0, false, err
	}
	cfg.Batch = int(batch)
	if cfg.NeighborhoodWindow, err = r.dur(); err != nil {
		return 0, false, err
	}
	if cfg.DrainTimeout, err = r.dur(); err != nil {
		return 0, false, err
	}
	if state.epoch, err = r.dur(); err != nil {
		return 0, false, err
	}
	if slots, err = r.u64(); err != nil {
		return 0, false, err
	}
	nt, err := r.count(16)
	if err != nil {
		return 0, false, err
	}
	cfg.Targets = make([]netip.Addr, nt)
	for i := range cfg.Targets {
		if cfg.Targets[i], err = r.addr(); err != nil {
			return 0, false, err
		}
	}
	if r.off != len(payload) {
		return 0, false, fmt.Errorf("%w: %d trailing config bytes", ErrCheckpoint, len(payload)-r.off)
	}
	return slots, hasProg, nil
}

func decodeShard(payload []byte, version int) (*resumeShard, int, error) {
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
	ints := []*int64{&sh.stats.ProbesSent, &sh.stats.Fills, &sh.stats.Skipped, &sh.stats.Replies, &sh.stats.NotMine, &sh.stats.Retries}
	for _, f := range ints {
		if *f, err = r.i64(); err != nil {
			return nil, 0, err
		}
	}
	if sh.stats.Elapsed, err = r.dur(); err != nil {
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
	if version >= 2 {
		// The simulator-state blob closes every version-02 shard section;
		// version-01 payloads end at the store.
		nSim, err := r.count(1)
		if err != nil {
			return nil, 0, err
		}
		if rs.simState, err = r.bytes(nSim); err != nil {
			return nil, 0, err
		}
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
