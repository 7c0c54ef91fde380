package store_test

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"beholder/internal/store"
	"beholder/internal/store/faultfs"
	"beholder/internal/telemetry"
)

// slot names one (key, kind) entry.
type slot struct{ key, kind string }

// action is one step of the crash script. val is the step's new blob;
// nil means it drops the entry.
type action struct {
	slot
	val    []byte
	do     func(*store.Store) error
	reason string // non-empty for Quarantine
}

func put(key, kind, val string) action {
	a := action{slot: slot{key, kind}, val: []byte(val)}
	a.do = func(s *store.Store) error { return s.Put(key, kind, a.val) }
	return a
}

func del(key, kind string) action {
	return action{slot: slot{key, kind}, do: func(s *store.Store) error { return s.Delete(key, kind) }}
}

func quarantine(key, kind string) action {
	return action{slot: slot{key, kind}, reason: "domain check failed",
		do: func(s *store.Store) error { return s.Quarantine(key, kind, "domain check failed") }}
}

// crashScript exercises every write path: first Puts, a replacing Put,
// a Delete, a Put after a Delete, a Quarantine, and a Put after it.
var crashScript = []action{
	put("a", "spec", "a1"),
	put("b", "ckpt", "b1"),
	put("a", "spec", "a2"),
	del("b", "ckpt"),
	put("b", "ckpt", "b2"),
	quarantine("a", "spec"),
	put("a", "store", "s1"),
}

type state map[slot]string

func (st state) apply(a action) state {
	out := maps.Clone(st)
	if a.val == nil {
		delete(out, a.slot)
	} else {
		out[a.slot] = string(a.val)
	}
	return out
}

// read returns every slot the script touches, as reopened from dir.
func read(t *testing.T, s *store.Store) state {
	t.Helper()
	got := state{}
	for _, a := range crashScript {
		b, err := s.Get(a.key, a.kind)
		switch {
		case err == nil:
			got[a.slot] = string(b)
		case !errors.Is(err, store.ErrNotFound):
			t.Fatalf("Get(%s, %s): %v", a.key, a.kind, err)
		}
	}
	return got
}

// trace is the script run without faults: the op index before each
// step, and the op count after the last.
type trace struct {
	start []uint64
	end   uint64
}

// runScript opens a store on dir through ffs and runs the script,
// returning each step's error. It stops at the first ErrCrashed.
func runScript(t *testing.T, dir string, ffs *faultfs.FS, tr *trace) []error {
	t.Helper()
	s, err := store.Open(store.Config{Dir: dir, FS: ffs})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	errs := make([]error, len(crashScript))
	for i, a := range crashScript {
		if tr != nil {
			tr.start = append(tr.start, ffs.Ops())
		}
		if errs[i] = a.do(s); errors.Is(errs[i], faultfs.ErrCrashed) {
			break
		}
	}
	if tr != nil {
		tr.end = ffs.Ops()
	}
	s.Close()
	return errs
}

func reopen(t *testing.T, dir string) (*store.Store, store.ScrubReport) {
	t.Helper()
	s, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s, s.Report()
}

// scriptTrace runs the script without faults.
func scriptTrace(t *testing.T) trace {
	var tr trace
	for i, err := range runScript(t, t.TempDir(), faultfs.New(store.OS, 0), &tr) {
		if err != nil {
			t.Fatalf("step %d without faults: %v", i, err)
		}
	}
	return tr
}

// TestCrashMatrix crashes the script at every filesystem step and
// reopens: every entry holds its value from before the step in flight
// or from after it, never a torn mix; a crash between the directory
// fsync and the journal commit of a Put leaves exactly that blob
// quarantined as an uncommitted write; and the repairs are durable,
// so a second reopen scrubs clean.
func TestCrashMatrix(t *testing.T) {
	tr := scriptTrace(t)
	for op := tr.start[0] + 1; op <= tr.end; op++ {
		dir := t.TempDir()
		ffs := faultfs.New(store.OS, 0, faultfs.Rule{Fault: faultfs.Crash, At: op})
		runScript(t, dir, ffs, nil)
		step := len(crashScript) // a crash in Close
		for i := len(tr.start) - 1; i >= 0; i-- {
			if op > tr.start[i] {
				step = i
				break
			}
		}
		before := state{}
		for _, a := range crashScript[:step] {
			before = before.apply(a)
		}
		after := before
		if step < len(crashScript) {
			after = before.apply(crashScript[step])
		}
		s, rep := reopen(t, dir)
		got := read(t, s)
		if !maps.Equal(got, before) && !maps.Equal(got, after) {
			t.Fatalf("crash at op %d (step %d): reopened to %v, want %v or %v", op, step, got, before, after)
		}
		if len(rep.Missing) != 0 || rep.JournalTruncated != 0 {
			t.Fatalf("crash at op %d: %+v", op, rep)
		}
		// A Put's seventh and eighth operations are the journal write
		// and its fsync: the blob is renamed and its directory synced,
		// but the commit never became durable.
		if step < len(crashScript) && crashScript[step].reason == "" && crashScript[step].val != nil {
			if off := op - tr.start[step]; off == 7 || off == 8 {
				// Every step journals one record: step i commits
				// generation i+1.
				a := crashScript[step]
				blob := fmt.Sprintf("%s.%d.%s", a.key, step+1, a.kind)
				want := []store.Quarantined{{File: blob, Reason: "uncommitted write"}}
				if !slices.Equal(rep.Quarantined, want) || !maps.Equal(got, before) {
					t.Fatalf("crash at the commit of step %d: report %+v, state %v; want %v and %v", step, rep.Quarantined, got, want, before)
				}
				if _, err := os.Stat(filepath.Join(dir, "corrupt", blob)); err != nil {
					t.Fatalf("uncommitted blob not kept in corrupt/: %v", err)
				}
			}
		}
		for _, q := range rep.Quarantined {
			if q.Reason != "uncommitted write" {
				t.Fatalf("crash at op %d: quarantined %+v", op, q)
			}
		}
		s.Close()
		if _, rep := reopen(t, dir); !rep.Clean() {
			t.Fatalf("crash at op %d: second reopen not clean: %+v", op, rep)
		}
	}
}

// TestFaultMatrix injects each fault kind at every filesystem step of
// the script. The call the fault lands in returns an error; whatever
// returned nil survives reopen; the faulted call took effect entirely
// or not at all; and a second reopen scrubs clean. A short write on the
// journal leaves a torn frame that the next Open truncates, keeping
// every record before it.
func TestFaultMatrix(t *testing.T) {
	tr := scriptTrace(t)
	for _, kind := range []faultfs.Fault{faultfs.SyncEIO, faultfs.WriteENOSPC, faultfs.ShortWrite, faultfs.RenameFail, faultfs.DirSyncFail} {
		t.Run(kind.String(), func(t *testing.T) {
			var last uint64
			for op := tr.start[0] + 1; op <= tr.end; op++ {
				dir := t.TempDir()
				ffs := faultfs.New(store.OS, 0, faultfs.Rule{Fault: kind, At: op})
				errs := runScript(t, dir, ffs, nil)
				fired := ffs.Fired()
				if len(fired) == 0 || fired[0] == last || fired[0] > tr.end {
					continue // no new step for this kind
				}
				last = fired[0]
				faulted := -1
				for i := len(tr.start) - 1; i >= 0 && faulted < 0; i-- {
					if fired[0] > tr.start[i] {
						faulted = i
					}
				}
				if faulted < 0 || errs[faulted] == nil {
					t.Fatalf("%v at op %d: step %d returned nil", kind, fired[0], faulted)
				}
				without, with := state{}, state{}
				for i, a := range crashScript {
					if errs[i] == nil {
						without, with = without.apply(a), with.apply(a)
					} else if i == faulted {
						with = with.apply(a)
					}
				}
				s, rep := reopen(t, dir)
				got := read(t, s)
				if !maps.Equal(got, without) && !maps.Equal(got, with) {
					t.Fatalf("%v at op %d (step %d, errors %v): reopened to %v, want %v or %v", kind, fired[0], faulted, errs, got, without, with)
				}
				if len(rep.Missing) != 0 {
					t.Fatalf("%v at op %d: missing %+v", kind, fired[0], rep.Missing)
				}
				if kind == faultfs.ShortWrite && fired[0]-tr.start[faulted] == 7 && crashScript[faulted].val != nil {
					// The journal frame of a Put: Close synced its first
					// half, which replay reads as a torn tail.
					if rep.JournalTruncated == 0 || !maps.Equal(got, without) {
						t.Fatalf("short journal write at step %d: %+v, state %v", faulted, rep, got)
					}
				}
				s.Close()
				if _, rep := reopen(t, dir); !rep.Clean() {
					t.Fatalf("%v at op %d: second reopen not clean: %+v", kind, fired[0], rep)
				}
			}
			if last == 0 {
				t.Fatalf("%v never fired", kind)
			}
		})
	}
}

// TestJournalFailureRefusesWrites: a failed journal append leaves a
// partial frame that replay cuts as a torn tail, taking every later
// record with it. The store must refuse writes until reopened, so no
// Put that returned nil is lost, and its store_poisoned gauge reads 1
// for exactly as long as it refuses them.
func TestJournalFailureRefusesWrites(t *testing.T) {
	for _, kind := range []faultfs.Fault{faultfs.ShortWrite, faultfs.SyncEIO} {
		t.Run(kind.String(), func(t *testing.T) {
			dir := t.TempDir()
			ffs := faultfs.New(store.OS, 0)
			reg := telemetry.NewRegistry()
			poisoned := reg.Gauge("store_poisoned")
			s, err := store.Open(store.Config{Dir: dir, FS: ffs, Telemetry: reg})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Put("a", "spec", []byte("one")); err != nil {
				t.Fatal(err)
			}
			// The first write or fsync from a Put's seventh operation on
			// is its journal append.
			ffs.Arm(faultfs.Rule{Fault: kind, At: ffs.Ops() + 7})
			if err := s.Put("b", "spec", []byte("two")); err == nil {
				t.Fatal("Put with a failed journal append returned nil")
			}
			if v := poisoned.Value(); v != 1 {
				t.Errorf("store_poisoned after the failed append = %d, want 1", v)
			}
			acked := map[string]bool{
				"c":  s.Put("c", "spec", []byte("c")) == nil,
				"-a": s.Delete("a", "spec") == nil,
				"d":  s.Put("d", "spec", []byte("d")) == nil,
			}
			if v := poisoned.Value(); v != 1 {
				t.Errorf("store_poisoned while writes are refused = %d, want 1", v)
			}
			s.Close()
			if v := poisoned.Value(); v != 0 {
				t.Errorf("store_poisoned after Close = %d, want 0", v)
			}
			poisoned.Set(1)
			s2, err := store.Open(store.Config{Dir: dir, Telemetry: reg})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			t.Cleanup(func() { s2.Close() })
			if v := poisoned.Value(); v != 0 {
				t.Errorf("store_poisoned after reopen = %d, want 0", v)
			}
			for _, k := range []string{"c", "d"} {
				if _, err := s2.Get(k, "spec"); acked[k] && err != nil {
					t.Errorf("Put(%s) returned nil but is lost on reopen: %v", k, err)
				}
			}
			if _, err := s2.Get("a", "spec"); acked["-a"] && err == nil {
				t.Error("Delete(a) returned nil but a survives reopen")
			}
			if got, err := s2.Get("a", "spec"); !acked["-a"] && (err != nil || !bytes.Equal(got, []byte("one"))) {
				t.Errorf("a before the failure: %q, %v", got, err)
			}
			if err := s2.Put("e", "spec", []byte("e")); err != nil {
				t.Fatalf("reopened store refuses writes: %v", err)
			}
		})
	}
}

// TestFaultScheduleReplays: the fault schedule is a function of the
// seed alone — the same seed fails the same operations, another seed
// others.
func TestFaultScheduleReplays(t *testing.T) {
	// Faults that leave the journal intact, so the store keeps writing.
	rules := []faultfs.Rule{{Fault: faultfs.WriteENOSPC, Prob: 0.3}, {Fault: faultfs.RenameFail, Prob: 0.3}, {Fault: faultfs.DirSyncFail, Prob: 0.3}}
	run := func(seed uint64) []uint64 {
		ffs := faultfs.New(store.OS, seed, rules...)
		runScript(t, t.TempDir(), ffs, nil)
		return ffs.Fired()
	}
	a, b := run(7), run(7)
	if len(a) == 0 || !slices.Equal(a, b) {
		t.Fatalf("seed 7 replayed differently: %v, %v", a, b)
	}
	if c := run(8); slices.Equal(c, a) {
		t.Fatalf("seeds 7 and 8 drew the same schedule: %v", a)
	}
}
