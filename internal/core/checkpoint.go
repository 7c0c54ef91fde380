// Campaign checkpoint artifacts.
//
// Yarrp6's statelessness means a shard's entire progress is one
// permutation cursor plus its result store; everything else a resumed
// run needs — clocks, codec epochs, counters, the progress series and
// first sightings behind the discovery curve, in-flight replies — is
// small bookkeeping around that fact. Checkpoint serializes it all into
// one versioned artifact: a magic header followed by length-prefixed
// sections, each protected by its own CRC32, so truncation and
// corruption are detected per section with typed errors and the decoder
// never panics on arbitrary bytes (FuzzCheckpointDecode pins this).
// Resume reconstructs the campaign so that interrupt-at-any-instant plus
// resume reproduces the uninterrupted run byte for byte — stores and
// progress streams alike — at any shard count and batch size. Only the
// current format version is read: an artifact written by an older
// binary is rejected as a bad magic.
//
// Router token-bucket levels ride along: each shard section ends with
// the connection's opaque simulator-state blob (Conn.ExportSimState),
// which the resumed connection imports, so interrupt plus resume is
// byte-exact even when an ICMPv6 rate limiter was saturated across the
// interrupt instant.
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

	"beholder/internal/ipv6"
	"beholder/internal/probe"
	"beholder/internal/telemetry"
)

// checkpointMagic opens every artifact; the trailing digits are the
// format version, so a layout change bumps the magic itself.
const checkpointMagic = "Y6CKPT05"

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
// state to serialize: it has not run, or ran to completion without an
// interrupt request.
var ErrNotCheckpointable = errors.New("yarrp6: campaign is not checkpointable")

// Checkpoint serializes the campaign's complete state after an
// interrupted Run (InterruptAt or Interrupt). The
// artifact captures per-shard permutation cursors, store snapshots,
// progress series and first sightings, counter deltas, and in-flight
// replies; Resume reconstructs a campaign that continues the run
// exactly. A shard a fatal connection fault stopped is part of the
// artifact like any other: its record continues on a fresh connection.
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
	// shard's counters and progress samples. Falling short would only cost
	// a regrowth.
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
		buf = appendSection(buf, sectShard, ss.appendTo)
	}
	return buf, nil
}

// checkpointable reports why the campaign's state cannot be carried
// forward, by artifact or by Rewind; nil when it can.
func (c *Campaign) checkpointable() error {
	if !c.keep || len(c.shards) == 0 {
		return ErrNotCheckpointable
	}
	return nil
}

// Rewind returns a fresh campaign that continues this interrupted run
// in-process — the continuation Resume(Checkpoint(), ...) builds, without
// the serialize/decode round trip. It hands over the shard records
// themselves (stores, first-seen lists, progress samples, captures,
// telemetry instruments), not a copy, so the receiver must not be run,
// checkpointed, merged, or rewound again. A nil connOf keeps the live
// connections and the campaign's own factory, as a periodic snapshot
// does; a factory continues every unfinished shard on a fresh connection
// from it, restoring the captured replies and bucket state, as a
// failover does. Like a resumed one, the continuation runs without
// observers, and it is byte-identical to the artifact round trip.
func (c *Campaign) Rewind(rc ResumeConfig, connOf ConnFactory) (*Campaign, error) {
	if err := c.checkpointable(); err != nil {
		return nil, err
	}
	if connOf == nil {
		connOf = c.connOf
	} else {
		for _, ss := range c.shards {
			ss.conn = nil
		}
	}
	cfg := c.cfg
	rc.apply(&cfg)
	return &Campaign{cfg: cfg, connOf: connOf, epoch: c.epoch, slots: c.slots, prev: c.shards}, nil
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
// section carries behind its own flag byte, MaxTTL through Batch;
// ckReader.tuning is its decoder.
func appendTuning(buf []byte, cfg *CampaignConfig) []byte {
	buf = append(buf, cfg.MaxTTL, cfg.Proto, cfg.Instance)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(cfg.PPS))
	buf = binary.LittleEndian.AppendUint64(buf, cfg.Key)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(cfg.Shards))
	return binary.LittleEndian.AppendUint32(buf, uint32(cfg.Batch))
}

// appendCounters appends a Stats' counters and elapsed time;
// ckReader.counters is its decoder.
func appendCounters(buf []byte, st *Stats) []byte {
	for _, c := range st.counters() {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(*c.n))
	}
	return appendDur(buf, st.Elapsed)
}

// appendTo appends the shard record's section payload; decodeShard is
// its decoder.
func (ss *shardState) appendTo(buf []byte) []byte {
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
	buf = appendCounters(buf, &ss.stats)
	for _, k := range rs.kindCount {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(k))
	}
	samples := ss.prog.Samples()
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(samples)))
	for _, s := range samples {
		buf = appendDur(buf, s.At)
		for _, n := range []int64{s.Probes, s.Fills, s.Replies, s.TimeExceeded, s.EchoReplies, s.DestUnreach, s.TCPRsts, s.Interfaces} {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(n))
		}
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
			buf = binary.BigEndian.AppendUint64(buf, e.key.Hi)
			buf = binary.BigEndian.AppendUint64(buf, e.key.Lo)
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

// ResumeConfig supplies the non-serializable halves of a resumed or
// rewound campaign — telemetry and progress output, and for an adaptive
// one the target source and alias hook — plus an optional new interrupt
// instant for chained checkpointing. Continuations run without
// observers: what they would have reported, the progress stream reports
// exactly, and a campaign's graph is graph.FromStore of its merged
// store.
type ResumeConfig struct {
	// Telemetry receives the resumed run's metrics. Restored counter
	// totals replay into it on the first flush, so its final state
	// matches an uninterrupted run's registry.
	Telemetry *telemetry.Registry
	// ProgressWriter receives the full progress NDJSON stream: the
	// restored pre-interrupt samples and the resumed run's together,
	// byte-identical to the uninterrupted stream.
	ProgressWriter io.Writer
	// ProgressPerShard adds the per-shard window records to the stream.
	ProgressPerShard bool
	// InterruptAt, when nonzero, interrupts the resumed run in turn at
	// that instant (relative to the original campaign epoch, or to the
	// adaptive origin), allowing checkpoint chains.
	InterruptAt time.Duration
	// Source receives an adaptive artifact's target-source state; it is
	// a zero value of the original run's source type. ResumeAdaptive
	// requires it; Resume and Rewind ignore it.
	Source TargetSource
	// DetectAliases is a resumed adaptive run's between-epoch alias hook
	// (AdaptiveConfig.DetectAliases); nil disables detection.
	DetectAliases func(epoch int, store *probe.Store) []netip.Prefix
}

// apply lays the resumed run's non-serializable halves over the
// configuration it continues.
func (rc *ResumeConfig) apply(cfg *CampaignConfig) {
	cfg.ProgressWriter = rc.ProgressWriter
	cfg.ProgressPerShard = rc.ProgressPerShard
	cfg.Telemetry = rc.Telemetry
	cfg.InterruptAt = rc.InterruptAt
}

// Resume reconstructs a checkpointed campaign. connOf must produce
// connections over the same (or an identically seeded) vantage universe
// as the original run, opening each shard's clock at the requested
// offset from the original campaign epoch — Campaign.Epoch exposes it.
// Run then continues the run exactly where Checkpoint cut it.
func Resume(artifact []byte, rc ResumeConfig, connOf ConnFactory) (*Campaign, error) {
	sec, err := readSections(artifact)
	if err != nil {
		return nil, err
	}
	if sec.adaptive != nil {
		return nil, fmt.Errorf("%w: adaptive artifact; use ResumeAdaptive", ErrCheckpoint)
	}
	prev := make([]*shardState, len(sec.shards))
	for i, payload := range sec.shards {
		if prev[i], err = sec.decodeShard(payload); err != nil {
			return nil, err
		}
		if prev[i].index != i {
			return nil, fmt.Errorf("%w: shard %d out of order", ErrCheckpoint, prev[i].index)
		}
	}
	cfg := sec.cfg
	rc.apply(&cfg)
	return &Campaign{cfg: cfg, connOf: connOf, epoch: sec.epoch, slots: sec.slots, prev: prev}, nil
}

// sections is an artifact taken apart by readSections: either a campaign
// — its decoded config section plus one payload per shard — or a lone
// adaptive payload. The payloads alias the artifact and are CRC-verified
// but not yet parsed.
type sections struct {
	cfg      CampaignConfig
	epoch    time.Duration
	slots    uint64
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
// payload. The first failed read or check sticks in err and every later
// read returns zero, so a decoder reads its layout straight through —
// the mirror of the encoder — and asks done once.
type ckReader struct {
	buf []byte
	off int
	err error
}

// fail records a decode error unless an earlier one already stands.
func (r *ckReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{ErrCheckpoint}, args...)...)
	}
}

// take returns the next n bytes, or nil once the payload has run short.
func (r *ckReader) take(n int) []byte {
	if len(r.buf)-r.off < n {
		r.fail("truncated payload at offset %d", r.off)
	}
	if r.err != nil {
		return nil
	}
	r.off += n
	return r.buf[r.off-n : r.off]
}

func (r *ckReader) u8() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *ckReader) u32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *ckReader) u64() uint64 {
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *ckReader) dur() time.Duration { return time.Duration(r.u64()) }
func (r *ckReader) i64() int64         { return int64(r.u64()) }

// count reads a length prefix and rejects values that cannot fit in the
// remaining payload, so corrupt lengths fail fast instead of driving
// huge allocations.
func (r *ckReader) count(elemMin int) int {
	v := r.u32()
	if int64(v)*int64(elemMin) > int64(len(r.buf)-r.off) {
		r.fail("implausible count %d at offset %d", v, r.off)
	}
	if r.err != nil {
		return 0
	}
	return int(v)
}

func (r *ckReader) addr() netip.Addr {
	var a16 [16]byte
	copy(a16[:], r.take(16))
	return netip.AddrFrom16(a16)
}

// bytes returns a copy of the next n bytes.
func (r *ckReader) bytes(n int) []byte { return append([]byte(nil), r.take(n)...) }

// done closes a decode: the first error met, or a complaint about bytes
// left over behind the layout.
func (r *ckReader) done(what string) error {
	if r.off != len(r.buf) {
		r.fail("%d trailing %s bytes", len(r.buf)-r.off, what)
	}
	return r.err
}

// tuning decodes the block appendTuning wrote.
func (r *ckReader) tuning(cfg *CampaignConfig) {
	for _, f := range []*uint8{&cfg.MaxTTL, &cfg.Proto, &cfg.Instance} {
		*f = r.u8()
	}
	cfg.PPS = math.Float64frombits(r.u64())
	if cfg.PPS <= 0 || math.IsNaN(cfg.PPS) || math.IsInf(cfg.PPS, 0) {
		r.fail("invalid PPS")
	}
	cfg.Key = r.u64()
	shards := r.u32()
	if shards == 0 || shards > 1<<16 {
		r.fail("invalid shard count %d", shards)
	}
	cfg.Shards = int(shards)
	cfg.Batch = int(r.u32())
}

// counters decodes the block appendCounters wrote.
func (r *ckReader) counters(st *Stats) {
	for _, c := range st.counters() {
		*c.n = r.i64()
	}
	st.Elapsed = r.dur()
}

func (sec *sections) decodeConfig(payload []byte) error {
	cfg := &sec.cfg
	r := ckReader{buf: payload}
	flags := r.u8()
	cfg.RecordPaths = flags&1 != 0
	cfg.Fill = flags&2 != 0
	r.tuning(cfg)
	sec.epoch = r.dur()
	if sec.slots = r.u64(); sec.slots == 0 {
		// Every campaign samples its progress; a zero step cannot.
		r.fail("zero progress sampling step")
	}
	cfg.Targets = make([]netip.Addr, r.count(16))
	for i := range cfg.Targets {
		cfg.Targets[i] = r.addr()
	}
	return r.done("config")
}

// decodeShard decodes one shard section into the record a resumed
// campaign continues, field for field the mirror of appendTo. An
// unfinished shard's capture is restored whole; a finished one carries
// only its results.
func (sec *sections) decodeShard(payload []byte) (*shardState, error) {
	r := ckReader{buf: payload}
	ss := &shardState{index: int(r.u32()), done: r.u8() != 0}
	rs := &shardResume{cursor: r.u64(), epoch: r.dur(), now: r.dur(), drainDeadline: r.dur()}
	r.counters(&ss.stats)
	for i := range rs.kindCount {
		rs.kindCount[i] = r.i64()
	}
	samples := make([]telemetry.Sample, r.count(72))
	for i := range samples {
		s := &samples[i]
		s.At = r.dur()
		for _, f := range []*int64{&s.Probes, &s.Fills, &s.Replies, &s.TimeExceeded, &s.EchoReplies, &s.DestUnreach, &s.TCPRsts, &s.Interfaces} {
			*f = r.i64()
		}
	}
	// The recorder the resumed shard goes on sampling into, on the
	// original run's grid.
	ss.prog = telemetry.NewProgress(sec.epoch, time.Duration(sec.slots)*sendGap(sec.cfg.PPS))
	ss.prog.Restore(samples)
	for n := r.count(12); n > 0; n-- {
		at := r.dur()
		rs.pending = append(rs.pending, pendingReply{at: at, data: r.bytes(r.count(1))})
	}
	if r.u8() != 0 {
		seen := make([]ifaceSeen, r.count(24))
		for i := range seen {
			seen[i] = ifaceSeen{key: ipv6.FromAddr(r.addr()), at: r.dur()}
			// The encoder writes each interface once, ascending; the next
			// checkpoint's index merge relies on it.
			if i > 0 && seen[i-1].key.Cmp(seen[i].key) >= 0 {
				r.fail("first-seen list out of order at entry %d", i)
			}
		}
		ss.track = &ifaceTimes{seen: seen, nSorted: len(seen)}
	}
	enc := r.take(r.count(1))
	rs.simState = r.bytes(r.count(1)) // the simulator-state blob closes the section
	if err := r.done("shard"); err != nil {
		return nil, err
	}
	var err error
	if ss.store, err = probe.DecodeStore(enc); err != nil {
		return nil, fmt.Errorf("%w: shard store: %v", ErrCheckpoint, err)
	}
	if !ss.done {
		ss.rs = rs
	}
	return ss, nil
}
