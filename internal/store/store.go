// Package store is beholderd's crash-safe durable state store.
//
// The daemon persists three kinds of blob per campaign — the submitted
// spec sidecar, the latest checkpoint artifact, and the final probe
// store — and must survive kill -9 or power loss at any instant with
// either the old or the new state visible, never a torn mix. The store
// provides that guarantee with two pieces:
//
//   - Every blob write is temp-file -> fsync -> rename -> parent-dir
//     fsync. Blob filenames are versioned ("<key>.<gen>.<kind>") so a
//     crash between rename and journal commit cannot shadow the
//     previous generation.
//
//   - A CRC-framed append-only manifest journal (manifest.log) is the
//     commit point. Each record is [u32 len][u32 crc32][JSON payload]
//     and is fsynced before the write returns. Replay truncates a torn
//     tail at the first bad frame; the surviving prefix defines the
//     live entry set and the monotonic generation counter.
//
// On Open the store scrubs the directory against the replayed
// manifest: leftover temp files are deleted, stale prior-generation
// blobs are deleted, renamed-but-unjournaled blobs and files the
// manifest does not know are quarantined into corrupt/, and every live
// blob is re-read and verified (size, CRC, optional per-kind
// validator). One bad file never blocks recovery of the rest — it is
// moved aside, reported in the ScrubReport, and counted in the
// store_quarantined_total telemetry counter.
package store

import (
	"cmp"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"maps"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"

	"beholder/internal/telemetry"
)

const (
	manifestName = "manifest.log"
	corruptDir   = "corrupt"
	tmpPrefix    = ".tmp-"

	opPut = "put"
	opDel = "del"

	// maxRecord bounds a manifest frame; real records are <1 KiB of
	// JSON, so anything larger is treated as a torn/corrupt tail.
	maxRecord = 1 << 20
)

// ErrNotFound is returned by Get for a key/kind the manifest does not
// track.
var ErrNotFound = errors.New("store: entry not found")

// Config configures Open.
type Config struct {
	// Dir is the state directory. It is created if missing, along
	// with Dir/corrupt for quarantined files.
	Dir string

	// Validate maps a blob kind to a content validator run against
	// every live blob during the recovery scrub. A validator error
	// quarantines the blob instead of failing Open.
	Validate map[string]func([]byte) error

	// KeepSuffixes lists filename suffixes the scrub ignores
	// entirely (e.g. ".stream.ndjson" for append-only event logs
	// that live outside the manifest's atomicity domain).
	KeepSuffixes []string

	// Telemetry, when non-nil, receives the store_* counters and
	// gauges.
	Telemetry *telemetry.Registry

	// FS is the filesystem the store runs on; nil means OS.
	FS FS
}

// Entry describes one live blob tracked by the manifest.
type Entry struct {
	Key  string
	Kind string
	Gen  uint64
	File string
	Size int64
	CRC  uint32
}

// Quarantined describes one file moved into corrupt/ during the scrub
// or via Quarantine.
type Quarantined struct {
	File   string
	Reason string
}

// ScrubReport summarises what Open found and repaired.
type ScrubReport struct {
	// Entries is the number of live entries after the scrub.
	Entries int
	// Quarantined lists files moved into corrupt/.
	Quarantined []Quarantined
	// Missing lists manifest entries whose blob had vanished; the
	// entries were dropped.
	Missing []Entry
	// StaleRemoved counts superseded prior-generation blobs deleted.
	StaleRemoved int
	// TmpRemoved counts leftover temp files deleted.
	TmpRemoved int
	// JournalTruncated is the number of torn-tail bytes cut from
	// manifest.log during replay.
	JournalTruncated int64
}

// Clean reports whether the scrub found nothing to repair.
func (r ScrubReport) Clean() bool {
	return len(r.Quarantined) == 0 && len(r.Missing) == 0 &&
		r.StaleRemoved == 0 && r.TmpRemoved == 0 && r.JournalTruncated == 0
}

// record is one manifest journal payload.
type record struct {
	Gen  uint64 `json:"gen"`
	Op   string `json:"op"`
	Key  string `json:"key"`
	Kind string `json:"kind"`
	File string `json:"file,omitempty"`
	Size int64  `json:"size,omitempty"`
	CRC  uint32 `json:"crc,omitempty"`
}

type entryKey struct{ key, kind string }

type storeMetrics struct {
	puts        *telemetry.Counter
	dels        *telemetry.Counter
	bytes       *telemetry.Counter
	fsyncs      *telemetry.Counter
	quarantined *telemetry.Counter
	truncated   *telemetry.Counter
	entries     *telemetry.Gauge
	generation  *telemetry.Gauge
}

// Store is a crash-safe key/kind -> blob store backed by one
// directory. All methods are safe for concurrent use.
type Store struct {
	cfg Config
	dir string
	fs  FS

	mu  sync.Mutex
	man File // manifest journal, append-only
	// err refuses writes: set by Close, and by a failed journal append,
	// which may leave a partial frame behind that replay would read as
	// a torn tail — every record appended after it would be lost.
	err     error
	gen     uint64
	entries map[entryKey]Entry
	report  ScrubReport
	met     storeMetrics
}

// Open replays the manifest, scrubs the directory, and returns a
// ready store. Arbitrary garbage in the directory never fails Open;
// it is quarantined or deleted and reported via Report.
func Open(cfg Config) (_ *Store, err error) {
	if cfg.Dir == "" {
		return nil, errors.New("store: Config.Dir is required")
	}
	s := &Store{cfg: cfg, dir: cfg.Dir, fs: cmp.Or(cfg.FS, OS), entries: make(map[entryKey]Entry)}
	if err := s.fs.MkdirAll(filepath.Join(s.dir, corruptDir)); err != nil {
		return nil, err
	}
	if r := cfg.Telemetry; r != nil {
		s.met = storeMetrics{
			puts:        r.Counter("store_put_total"),
			dels:        r.Counter("store_delete_total"),
			bytes:       r.Counter("store_bytes_written_total"),
			fsyncs:      r.Counter("store_fsync_total"),
			quarantined: r.Counter("store_quarantined_total"),
			truncated:   r.Counter("store_journal_truncated_bytes_total"),
			entries:     r.Gauge("store_entries"),
			generation:  r.Gauge("store_generation"),
		}
	}
	path := filepath.Join(s.dir, manifestName)
	data, err := s.fs.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	good := s.replayManifest(data)
	if s.man, err = s.fs.Append(path); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			s.man.Close()
		}
	}()
	if good < len(data) {
		// Cut the torn tail in place, durably, before anything is
		// appended behind it.
		s.report.JournalTruncated = int64(len(data) - good)
		if err = s.man.Truncate(int64(good)); err == nil {
			err = s.man.Sync()
		}
		if err != nil {
			return nil, err
		}
	}
	dropped, err := s.scrub()
	if err != nil {
		return nil, err
	}
	// Journal the scrub's drops so the next startup replays to the
	// same live set without re-reporting them.
	for _, ek := range dropped {
		if _, _, err := s.dropLocked(ek); err != nil {
			return nil, err
		}
	}
	s.report.Entries = len(s.entries)
	s.publishLocked()
	s.met.truncated.Add(s.report.JournalTruncated)
	return s, nil
}

// replayManifest folds the good prefix of the manifest journal into
// the in-memory state and returns its length; what follows it is a
// torn tail.
func (s *Store) replayManifest(data []byte) int {
	off := 0
	for len(data)-off >= 8 {
		n := binary.LittleEndian.Uint32(data[off:])
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if n == 0 || n > maxRecord || int(n) > len(data)-off-8 {
			break
		}
		payload := data[off+8 : off+8+int(n)]
		if crc32.ChecksumIEEE(payload) != sum {
			break
		}
		var rec record
		if err := json.Unmarshal(payload, &rec); err != nil {
			break
		}
		if !s.applyRecord(rec) {
			break
		}
		off += 8 + int(n)
	}
	return off
}

// applyRecord folds one journal record into the in-memory state. It
// returns false for a structurally invalid record, which ends replay
// (the tail is treated as torn).
func (s *Store) applyRecord(rec record) bool {
	if validName(rec.Key) != nil || validName(rec.Kind) != nil || rec.Gen == 0 {
		return false
	}
	ek := entryKey{rec.Key, rec.Kind}
	switch rec.Op {
	case opPut:
		// The blob path is always derived from the validated
		// (key, gen, kind) triple, never from the journal's File
		// field, so a corrupt record cannot point outside the
		// directory.
		want := blobName(rec.Key, rec.Gen, rec.Kind)
		if rec.File != "" && rec.File != want {
			return false
		}
		s.entries[ek] = Entry{
			Key: rec.Key, Kind: rec.Kind, Gen: rec.Gen,
			File: want, Size: rec.Size, CRC: rec.CRC,
		}
	case opDel:
		delete(s.entries, ek)
	default:
		return false
	}
	if rec.Gen > s.gen {
		s.gen = rec.Gen
	}
	return true
}

// scrub reconciles the directory contents against the replayed
// manifest. It deletes temp and stale files, quarantines everything
// the manifest cannot vouch for, and verifies every live blob. It
// returns the entries whose blob is bad or gone, sorted, for Open to
// drop.
func (s *Store) scrub() ([]entryKey, error) {
	des, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	seen := make(map[entryKey]bool)
	var dropped []entryKey
	for _, de := range des {
		name := de.Name()
		if de.IsDir() || name == manifestName || s.keepFile(name) {
			continue
		}
		if strings.HasPrefix(name, tmpPrefix) {
			// A write that crashed before rename; the entry (if
			// any) still points at the previous generation.
			s.fs.Remove(filepath.Join(s.dir, name))
			s.report.TmpRemoved++
			continue
		}
		key, gen, kind, ok := parseBlobName(name)
		if !ok {
			s.quarantineLocked(name, "unrecognized file")
			continue
		}
		ek := entryKey{key, kind}
		e, tracked := s.entries[ek]
		switch {
		case tracked && gen == e.Gen:
			seen[ek] = true
			if reason, bad := s.verifyEntry(e); bad {
				s.quarantineLocked(name, reason)
				dropped = append(dropped, ek)
			}
		case gen <= s.gen:
			// A generation the journal has committed past: either
			// a superseded blob or the remnant of a journaled
			// delete. The live state does not reference it.
			s.fs.Remove(filepath.Join(s.dir, name))
			s.report.StaleRemoved++
		default:
			// Renamed but never journaled: the write crashed
			// before its commit point, so the manifest (old
			// state) is authoritative. Keep the bytes aside for
			// the operator rather than deleting them.
			s.quarantineLocked(name, "uncommitted write")
		}
	}
	for ek, e := range s.entries {
		if !seen[ek] {
			s.report.Missing = append(s.report.Missing, e)
			dropped = append(dropped, ek)
		}
	}
	slices.SortFunc(s.report.Missing, func(a, b Entry) int { return strings.Compare(a.File, b.File) })
	slices.SortFunc(s.report.Quarantined, func(a, b Quarantined) int { return strings.Compare(a.File, b.File) })
	slices.SortFunc(dropped, func(a, b entryKey) int {
		return cmp.Or(strings.Compare(a.key, b.key), strings.Compare(a.kind, b.kind))
	})
	return dropped, nil
}

// verifyEntry re-reads a live blob and checks size, CRC, and the
// per-kind validator. It returns a quarantine reason when the blob is
// bad.
func (s *Store) verifyEntry(e Entry) (string, bool) {
	data, err := s.fs.ReadFile(filepath.Join(s.dir, e.File))
	if err != nil {
		return "unreadable: " + err.Error(), true
	}
	if int64(len(data)) != e.Size {
		return fmt.Sprintf("size mismatch: have %d, manifest says %d", len(data), e.Size), true
	}
	if crc32.ChecksumIEEE(data) != e.CRC {
		return "crc mismatch", true
	}
	if v := s.cfg.Validate[e.Kind]; v != nil {
		if err := v(data); err != nil {
			return "invalid content: " + err.Error(), true
		}
	}
	return "", false
}

func (s *Store) keepFile(name string) bool {
	return slices.ContainsFunc(s.cfg.KeepSuffixes, func(suf string) bool { return strings.HasSuffix(name, suf) })
}

// quarantineLocked moves dir/name into dir/corrupt/, uniquifying the
// destination if needed, and records it in the report. A failed move
// deletes the file instead and is returned.
func (s *Store) quarantineLocked(name, reason string) error {
	src := filepath.Join(s.dir, name)
	dst := filepath.Join(s.dir, corruptDir, name)
	for i := 2; ; i++ {
		if _, err := s.fs.Stat(dst); err != nil {
			break // free, or the rename below fails too
		}
		dst = filepath.Join(s.dir, corruptDir, name+"."+strconv.Itoa(i))
	}
	err := s.fs.Rename(src, dst)
	if err != nil {
		// Rename can only reasonably fail if the file vanished or
		// the filesystem is read-only; fall back to deleting so a
		// bad blob cannot be re-ingested on the next start.
		s.fs.Remove(src)
	}
	s.report.Quarantined = append(s.report.Quarantined, Quarantined{File: name, Reason: reason})
	s.met.quarantined.Inc()
	return err
}

// Put durably stores data under (key, kind), replacing any previous
// generation. On return the blob and its manifest record are fsynced;
// a crash at any earlier instant leaves the previous generation live.
func (s *Store) Put(key, kind string, data []byte) error {
	if err := validName(key); err != nil {
		return fmt.Errorf("store: key %q: %w", key, err)
	}
	if err := validName(kind); err != nil {
		return fmt.Errorf("store: kind %q: %w", kind, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	gen := s.gen + 1
	fname := blobName(key, gen, kind)
	// The blob is fsynced, renamed into place, and its directory
	// fsynced so the rename survives power loss.
	tmp := filepath.Join(s.dir, tmpPrefix+fname)
	if err := s.writeFileSync(tmp, data); err != nil {
		s.fs.Remove(tmp)
		return err
	}
	if err := s.fs.Rename(tmp, filepath.Join(s.dir, fname)); err != nil {
		s.fs.Remove(tmp)
		return err
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		return err
	}
	s.met.fsyncs.Inc()
	rec := record{
		Gen: gen, Op: opPut, Key: key, Kind: kind,
		File: fname, Size: int64(len(data)), CRC: crc32.ChecksumIEEE(data),
	}
	// The journal append is the commit point: before it, the scrub
	// classifies the new blob as an uncommitted write and the old
	// generation stays live.
	if err := s.appendRecord(rec); err != nil {
		return err
	}
	s.gen = gen
	ek := entryKey{key, kind}
	if old, ok := s.entries[ek]; ok && old.File != fname {
		s.fs.Remove(filepath.Join(s.dir, old.File))
	}
	s.entries[ek] = Entry{Key: key, Kind: kind, Gen: gen, File: fname, Size: rec.Size, CRC: rec.CRC}
	s.met.puts.Inc()
	s.met.bytes.Add(int64(len(data)))
	s.publishLocked()
	return nil
}

// Get returns the live blob for (key, kind), verifying its CRC.
func (s *Store) Get(key, kind string) ([]byte, error) {
	s.mu.Lock()
	e, ok := s.entries[entryKey{key, kind}]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s.%s", ErrNotFound, key, kind)
	}
	data, err := s.fs.ReadFile(filepath.Join(s.dir, e.File))
	if err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(data) != e.CRC {
		return nil, fmt.Errorf("store: %s: crc mismatch", e.File)
	}
	return data, nil
}

// Delete durably removes (key, kind). Deleting an absent entry is a
// no-op.
func (s *Store) Delete(key, kind string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok, err := s.dropLocked(entryKey{key, kind})
	if ok {
		s.fs.Remove(filepath.Join(s.dir, e.File))
		s.met.dels.Inc()
	}
	return err
}

// Quarantine durably drops (key, kind) and moves its blob into
// corrupt/ with the given reason; when the move fails, the blob is
// deleted and the error returned. Used by recovery when a blob passes
// storage-level checks but fails domain-level ones.
func (s *Store) Quarantine(key, kind, reason string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok, err := s.dropLocked(entryKey{key, kind})
	if ok {
		err = s.quarantineLocked(e.File, reason)
	}
	return err
}

// dropLocked journals a del record for ek and forgets the entry,
// returning it; ok is false when there was nothing to drop. The
// caller disposes of the blob. Callers hold s.mu.
func (s *Store) dropLocked(ek entryKey) (e Entry, ok bool, err error) {
	if s.err != nil {
		return Entry{}, false, s.err
	}
	if e, ok = s.entries[ek]; !ok {
		return Entry{}, false, nil
	}
	if err := s.appendRecord(record{Gen: s.gen + 1, Op: opDel, Key: ek.key, Kind: ek.kind}); err != nil {
		return Entry{}, false, err
	}
	s.gen++
	delete(s.entries, ek)
	s.publishLocked()
	return e, true, nil
}

// publishLocked updates the entry and generation gauges. Callers hold
// s.mu.
func (s *Store) publishLocked() {
	s.met.entries.Set(int64(len(s.entries)))
	s.met.generation.Set(int64(s.gen))
}

// List returns the live entries sorted by key then kind.
func (s *Store) List() []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.SortedFunc(maps.Values(s.entries), func(a, b Entry) int {
		return cmp.Or(strings.Compare(a.Key, b.Key), strings.Compare(a.Kind, b.Kind))
	})
}

// Report returns what Open's recovery scrub found.
func (s *Store) Report() ScrubReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.report
}

// Close flushes and closes the manifest journal. The store rejects
// writes afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.man == nil {
		return nil
	}
	err := s.man.Sync()
	if cerr := s.man.Close(); err == nil {
		err = cerr
	}
	s.man = nil
	s.err = errors.New("store: closed")
	return err
}

// appendRecord frames, writes, and fsyncs one journal record. A
// failure poisons the store: it refuses writes until reopened, when
// replay cuts whatever partial frame the failure left. Callers hold
// s.mu.
func (s *Store) appendRecord(rec record) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	copy(frame[8:], payload)
	if _, err = s.man.Write(frame); err == nil {
		err = s.man.Sync()
	}
	if err != nil {
		s.err = fmt.Errorf("store: journal append failed, writes refused until reopen: %w", err)
		return s.err
	}
	s.met.fsyncs.Inc()
	return nil
}

// writeFileSync writes data to path and fsyncs the file.
func (s *Store) writeFileSync(path string, data []byte) error {
	f, err := s.fs.Create(path)
	if err != nil {
		return err
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		s.met.fsyncs.Inc()
	}
	return err
}

// blobName builds the versioned on-disk filename for an entry.
func blobName(key string, gen uint64, kind string) string {
	return key + "." + strconv.FormatUint(gen, 10) + "." + kind
}

// parseBlobName is the inverse of blobName. Keys and kinds never
// contain dots (validName), so the form is exactly three fields.
func parseBlobName(name string) (key string, gen uint64, kind string, ok bool) {
	parts := strings.Split(name, ".")
	if len(parts) != 3 {
		return "", 0, "", false
	}
	key, kind = parts[0], parts[2]
	if validName(key) != nil || validName(kind) != nil {
		return "", 0, "", false
	}
	gen, err := strconv.ParseUint(parts[1], 10, 64)
	if err != nil || gen == 0 {
		return "", 0, "", false
	}
	return key, gen, kind, true
}

// validName restricts keys and kinds to a filesystem- and
// manifest-safe alphabet: letters, digits, underscore, dash.
func validName(s string) error {
	if s == "" {
		return errors.New("empty name")
	}
	if len(s) > 200 {
		return errors.New("name too long")
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-':
		default:
			return fmt.Errorf("invalid character %q", r)
		}
	}
	return nil
}
