package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"beholder/internal/telemetry"
)

func mustOpen(t *testing.T, cfg Config) *Store {
	t.Helper()
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func mustPut(t *testing.T, s *Store, key, kind string, data []byte) {
	t.Helper()
	if err := s.Put(key, kind, data); err != nil {
		t.Fatalf("Put(%s,%s): %v", key, kind, err)
	}
}

func mustGet(t *testing.T, s *Store, key, kind string) []byte {
	t.Helper()
	data, err := s.Get(key, kind)
	if err != nil {
		t.Fatalf("Get(%s,%s): %v", key, kind, err)
	}
	return data
}

func TestPutGetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Config{Dir: dir})
	mustPut(t, s, "t__a", "spec", []byte(`{"x":1}`))
	mustPut(t, s, "t__a", "ckpt", []byte("artifact-v1"))
	mustPut(t, s, "t__a", "ckpt", []byte("artifact-v2")) // supersede
	if got := mustGet(t, s, "t__a", "ckpt"); string(got) != "artifact-v2" {
		t.Fatalf("got %q", got)
	}
	if _, err := s.Get("t__a", "nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	if e := s.List(); len(e) != 2 || e[0].Gen != 3 || e[1].Gen != 1 {
		t.Fatalf("entries %+v, want the ckpt at generation 3 and the spec at 1", e)
	}
	s.Close()

	// Reopen: state persists, scrub is clean, superseded blob gone.
	s2 := mustOpen(t, Config{Dir: dir})
	if got := mustGet(t, s2, "t__a", "ckpt"); string(got) != "artifact-v2" {
		t.Fatalf("after reopen got %q", got)
	}
	if rep := s2.Report(); !rep.Clean() || rep.Entries != 2 {
		t.Fatalf("scrub not clean: %+v", rep)
	}
	if _, err := os.Stat(filepath.Join(dir, "t__a.2.ckpt")); !os.IsNotExist(err) {
		t.Fatalf("superseded blob still present: %v", err)
	}
}

func TestDeleteAndReopen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Config{Dir: dir})
	mustPut(t, s, "k", "spec", []byte("x"))
	mustPut(t, s, "k2", "spec", []byte("y"))
	if err := s.Delete("k", "spec"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("k", "spec"); err != nil { // idempotent
		t.Fatal(err)
	}
	s.Close()
	s2 := mustOpen(t, Config{Dir: dir})
	if _, err := s2.Get("k", "spec"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted entry resurrected: %v", err)
	}
	if got := mustGet(t, s2, "k2", "spec"); string(got) != "y" {
		t.Fatalf("got %q", got)
	}
	if rep := s2.Report(); !rep.Clean() {
		t.Fatalf("scrub not clean after delete: %+v", rep)
	}
}

// Crash point 1: a write that died before rename leaves a temp file.
// The scrub deletes it and the previous generation stays live.
func TestCrashPartialTempFile(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Config{Dir: dir})
	mustPut(t, s, "camp", "ckpt", []byte("good"))
	s.Close()
	if err := os.WriteFile(filepath.Join(dir, tmpPrefix+"camp.2.ckpt"), []byte("par"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, Config{Dir: dir})
	rep := s2.Report()
	if rep.TmpRemoved != 1 {
		t.Fatalf("TmpRemoved = %d, want 1: %+v", rep.TmpRemoved, rep)
	}
	if got := mustGet(t, s2, "camp", "ckpt"); string(got) != "good" {
		t.Fatalf("old generation lost: %q", got)
	}
}

// Crash point 2: a journaled entry whose blob has vanished (stale
// manifest entry). The entry is dropped and reported; the rest of the
// store recovers.
func TestCrashStaleManifestEntry(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Config{Dir: dir})
	mustPut(t, s, "gone", "ckpt", []byte("a"))
	mustPut(t, s, "kept", "ckpt", []byte("b"))
	s.Close()
	if err := os.Remove(filepath.Join(dir, "gone.1.ckpt")); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, Config{Dir: dir})
	rep := s2.Report()
	if len(rep.Missing) != 1 || rep.Missing[0].Key != "gone" {
		t.Fatalf("missing: %+v", rep.Missing)
	}
	if _, err := s2.Get("gone", "ckpt"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("stale entry still served: %v", err)
	}
	if got := mustGet(t, s2, "kept", "ckpt"); string(got) != "b" {
		t.Fatalf("intact entry lost: %q", got)
	}
	s2.Close()
	// The drop was journaled: a third open reports a clean scrub.
	s3 := mustOpen(t, Config{Dir: dir})
	if rep := s3.Report(); !rep.Clean() {
		t.Fatalf("drop not journaled, scrub dirty: %+v", rep)
	}
}

// A corrupted live blob (bit rot) fails its CRC during the scrub and
// is quarantined without blocking the other entries.
func TestCorruptBlobQuarantined(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	s := mustOpen(t, Config{Dir: dir, Telemetry: reg})
	mustPut(t, s, "rot", "ckpt", []byte("aaaaaaaa"))
	mustPut(t, s, "ok", "ckpt", []byte("bbbbbbbb"))
	s.Close()
	if err := os.WriteFile(filepath.Join(dir, "rot.1.ckpt"), []byte("aaaaXaaa"), 0o644); err != nil {
		t.Fatal(err)
	}
	reg2 := telemetry.NewRegistry()
	s2 := mustOpen(t, Config{Dir: dir, Telemetry: reg2})
	rep := s2.Report()
	if len(rep.Quarantined) != 1 || rep.Quarantined[0].Reason != "crc mismatch" {
		t.Fatalf("quarantine: %+v", rep.Quarantined)
	}
	if got := mustGet(t, s2, "ok", "ckpt"); string(got) != "bbbbbbbb" {
		t.Fatalf("intact blob lost: %q", got)
	}
	if v := reg2.Counter("store_quarantined_total").Value(); v != 1 {
		t.Fatalf("store_quarantined_total = %d, want 1", v)
	}
}

// An orphan file with a recognized shape but no manifest entry is
// quarantined when its generation is ahead of the journal, and an
// unrecognizable file is quarantined outright.
func TestOrphanAndGarbageFiles(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Config{Dir: dir})
	mustPut(t, s, "real", "spec", []byte("x"))
	s.Close()
	os.WriteFile(filepath.Join(dir, "phantom.9.ckpt"), []byte("??"), 0o644)
	os.WriteFile(filepath.Join(dir, "no-shape-at-all"), []byte("??"), 0o644)
	s2 := mustOpen(t, Config{Dir: dir})
	rep := s2.Report()
	if len(rep.Quarantined) != 2 {
		t.Fatalf("quarantined: %+v", rep.Quarantined)
	}
	if got := mustGet(t, s2, "real", "spec"); string(got) != "x" {
		t.Fatalf("intact entry lost: %q", got)
	}
}

// Content validators run during the scrub and quarantine blobs that
// are framed correctly but semantically invalid.
func TestValidatorQuarantine(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Config{Dir: dir})
	mustPut(t, s, "bad", "spec", []byte("not json"))
	mustPut(t, s, "good", "spec", []byte("ok"))
	s.Close()
	validate := map[string]func([]byte) error{
		"spec": func(b []byte) error {
			if bytes.Contains(b, []byte("not")) {
				return errors.New("rejected")
			}
			return nil
		},
	}
	s2 := mustOpen(t, Config{Dir: dir, Validate: validate})
	rep := s2.Report()
	if len(rep.Quarantined) != 1 || !strings.Contains(rep.Quarantined[0].Reason, "rejected") {
		t.Fatalf("quarantine: %+v", rep.Quarantined)
	}
	if got := mustGet(t, s2, "good", "spec"); string(got) != "ok" {
		t.Fatalf("got %q", got)
	}
}

// Files matching KeepSuffixes (stream logs) are invisible to the
// scrub.
func TestKeepSuffixes(t *testing.T) {
	dir := t.TempDir()
	stream := filepath.Join(dir, "t__a.stream.ndjson")
	os.WriteFile(stream, []byte("{\"ev\":1}\n"), 0o644)
	s := mustOpen(t, Config{Dir: dir, KeepSuffixes: []string{".stream.ndjson"}})
	if rep := s.Report(); !rep.Clean() {
		t.Fatalf("stream file disturbed: %+v", rep)
	}
	if _, err := os.Stat(stream); err != nil {
		t.Fatalf("stream file moved: %v", err)
	}
}

// A fully corrupt manifest (random bytes) yields an empty but usable
// store; every unexplained blob lands in corrupt/.
func TestGarbageManifest(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, manifestName), []byte("garbage garbage garbage"), 0o644)
	os.WriteFile(filepath.Join(dir, "x.1.ckpt"), []byte("blob"), 0o644)
	s := mustOpen(t, Config{Dir: dir})
	rep := s.Report()
	if rep.JournalTruncated == 0 || len(rep.Quarantined) != 1 {
		t.Fatalf("report: %+v", rep)
	}
	mustPut(t, s, "fresh", "spec", []byte("works"))
	if got := mustGet(t, s, "fresh", "spec"); string(got) != "works" {
		t.Fatalf("got %q", got)
	}
}

// Quarantine drops a live entry at runtime and journals the drop.
func TestRuntimeQuarantine(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Config{Dir: dir})
	mustPut(t, s, "k", "ckpt", []byte("x"))
	if err := s.Quarantine("k", "ckpt", "domain check failed"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("k", "ckpt"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("quarantined entry still served: %v", err)
	}
	s.Close()
	s2 := mustOpen(t, Config{Dir: dir})
	if rep := s2.Report(); !rep.Clean() {
		t.Fatalf("runtime quarantine not journaled: %+v", rep)
	}
	if _, err := os.Stat(filepath.Join(dir, corruptDir, "k.1.ckpt")); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
}

func TestInvalidNamesRejected(t *testing.T) {
	s := mustOpen(t, Config{Dir: t.TempDir()})
	for _, bad := range []string{"", "a.b", "a/b", "../x", "a b", strings.Repeat("k", 201)} {
		if err := s.Put(bad, "spec", []byte("x")); err == nil {
			t.Fatalf("key %q accepted", bad)
		}
		if err := s.Put("ok", bad, []byte("x")); err == nil {
			t.Fatalf("kind %q accepted", bad)
		}
	}
}

// A crafted manifest record pointing its File field elsewhere is
// rejected at replay (treated as a torn tail) — the blob path is
// always derived from the validated key/gen/kind.
func TestManifestFileFieldMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	payload := []byte(fmt.Sprintf(`{"gen":1,"op":"put","key":"k","kind":"spec","file":"%s","size":1,"crc":0}`, "evil.1.other"))
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	copy(frame[8:], payload)
	os.WriteFile(filepath.Join(dir, manifestName), frame, 0o644)
	s := mustOpen(t, Config{Dir: dir})
	if rep := s.Report(); rep.JournalTruncated == 0 {
		t.Fatalf("crafted record accepted: %+v", rep)
	}
	if len(s.List()) != 0 {
		t.Fatalf("entries: %+v", s.List())
	}
}

func TestTelemetrySurface(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := mustOpen(t, Config{Dir: t.TempDir(), Telemetry: reg})
	mustPut(t, s, "k", "spec", []byte("abcd"))
	s.Delete("k", "spec")
	if v := reg.Counter("store_put_total").Value(); v != 1 {
		t.Fatalf("puts = %d", v)
	}
	if v := reg.Counter("store_delete_total").Value(); v != 1 {
		t.Fatalf("dels = %d", v)
	}
	if v := reg.Counter("store_bytes_written_total").Value(); v != 4 {
		t.Fatalf("bytes = %d", v)
	}
	if v := reg.Counter("store_fsync_total").Value(); v == 0 {
		t.Fatal("no fsyncs counted")
	}
	if v := reg.Gauge("store_generation").Value(); v != 2 {
		t.Fatalf("generation gauge = %d", v)
	}
}

// TestFsyncCount pins store_fsync_total to the fsyncs the protocol
// performs: a Put syncs the blob, the directory after the rename and the
// journal record (3); a Delete of a live entry syncs its journal record
// (1); a Delete of an absent entry touches nothing.
func TestFsyncCount(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := mustOpen(t, Config{Dir: t.TempDir(), Telemetry: reg})
	fsyncs := reg.Counter("store_fsync_total")
	step := func(what string, want int64, op func()) {
		t.Helper()
		before := fsyncs.Value()
		op()
		if got := fsyncs.Value() - before; got != want {
			t.Fatalf("%s: %d fsyncs counted, want %d", what, got, want)
		}
	}
	step("put", 3, func() { mustPut(t, s, "k", "spec", []byte("abcd")) })
	step("replacing put", 3, func() { mustPut(t, s, "k", "spec", []byte("efgh")) })
	step("delete", 1, func() {
		if err := s.Delete("k", "spec"); err != nil {
			t.Fatal(err)
		}
	})
	step("delete of an absent entry", 0, func() {
		if err := s.Delete("k", "spec"); err != nil {
			t.Fatal(err)
		}
	})
}
