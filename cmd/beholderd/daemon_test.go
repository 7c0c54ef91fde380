package main

// In-process fixtures: daemons built by newDaemon, the constructor main
// uses, driven through their HTTP handlers without a listener.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"beholder"
	"beholder/internal/store"
	"beholder/internal/store/faultfs"
)

const (
	soakSeed    = 2018
	soakVantage = "US-EDU-1"
)

var soakTargets = sync.OnceValues(func() ([]netip.Addr, error) {
	return beholder.NewSmallInternet(soakSeed).TargetSet("tum", 64, "lowbyte1", 1)
})

// testTargets is the small universe's tum z64 lowbyte1 list: about
// 4 200 targets, generated once per test binary.
func testTargets(t *testing.T) []netip.Addr {
	t.Helper()
	all, err := soakTargets()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < 4000 {
		t.Fatalf("only %d targets from the small universe", len(all))
	}
	return all
}

// soakCampaigns is a multi-tenant set of short campaigns: a few
// milliseconds each, which a daemon with a small -checkpoint-every still
// snapshots mid-run.
func soakCampaigns(t *testing.T) []campaignReq {
	all := testTargets(t)
	slice := func(i int) targetList { return targetList{addrs: all[i*100 : (i+1)*100]} }
	return []campaignReq{
		{Tenant: "alice", Name: "c1", Targets: slice(0), Rate: 800, MaxTTL: 10, Fill: true, Key: 21, Shards: 2, Batch: 1},
		{Tenant: "alice", Name: "c2", Targets: slice(1), Rate: 600, MaxTTL: 12, Fill: true, Key: 22, Shards: 2, Batch: 1},
		{Tenant: "bob", Name: "c3", Targets: slice(2), Rate: 1000, MaxTTL: 8, Fill: true, Key: 23, Shards: 3, Batch: 1},
	}
}

// longCampaigns splits the whole target list into n campaigns long
// enough — tens of milliseconds each, ten times that under the race
// detector — to still be running when a test acts on an early event.
func longCampaigns(t *testing.T, n int) []campaignReq {
	all := testTargets(t)
	var out []campaignReq
	for i := range n {
		out = append(out, campaignReq{Tenant: "alice", Name: fmt.Sprintf("long%d-%d", n, i),
			Targets: targetList{addrs: all[i*len(all)/n : (i+1)*len(all)/n]},
			Rate:    1000, MaxTTL: 16, Fill: true, Key: uint64(31 + i), Shards: 2})
	}
	return out
}

var solo sync.Map // tag -> []byte

// soloStoreBytes runs one campaign supervised but fault-free on a fresh
// identically seeded universe and returns the final store's canonical
// encoding, which every daemon run of it must reproduce.
func soloStoreBytes(t *testing.T, req campaignReq) []byte {
	t.Helper()
	tag := req.Tenant + "/" + req.Name
	if b, ok := solo.Load(tag); ok {
		return b.([]byte)
	}
	in := beholder.NewSmallInternet(soakSeed)
	sch, err := in.NewScheduler(beholder.SchedulerOptions{Tenants: []beholder.Tenant{{Name: req.Tenant}}, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	h, err := sch.Submit(in.NewVantage(soakVantage), req.Targets.addrs, beholder.SubmitOptions{
		Tenant: req.Tenant, Name: req.Name,
		Rate: req.Rate, MaxTTL: req.MaxTTL, Transport: req.Transport,
		Fill: req.Fill, Key: req.Key, Shards: req.Shards, Batch: req.Batch,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Wait(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if res.State != beholder.CampaignCompleted {
		t.Fatalf("solo %s: state %v (%s)", tag, res.State, res.Reason)
	}
	if _, err := sch.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	b := res.Store.AppendBinary(nil)
	solo.Store(tag, b)
	return b
}

// soakOptions configures an in-process daemon like the soak's
// subprocesses: the small universe, tenants alice and bob, a stall
// budget no run under the race detector reaches.
func soakOptions(stateDir string, ckptEvery time.Duration, fs store.FS) options {
	return options{
		SchedulerOptions: beholder.SchedulerOptions{
			Tenants: []beholder.Tenant{{Name: "alice"}, {Name: "bob"}},
			Workers: 3, StallBudget: 30 * time.Second, CheckpointEvery: ckptEvery,
		},
		simSeed: soakSeed, small: true, stateDir: stateDir, fs: fs,
	}
}

// startTestDaemon builds a daemon with newDaemon; it is stopped — by
// kill, if the test has not stopped it — when the test ends.
func startTestDaemon(t *testing.T, o options) *daemon {
	t.Helper()
	d, err := newDaemon(o)
	if err != nil {
		t.Fatalf("newDaemon: %v", err)
	}
	t.Cleanup(func() { d.kill() })
	return d
}

// kill stops an in-process daemon the way SIGKILL stops a process, as
// far as its state dir can tell once its filesystem has crashed:
// campaigns are interrupted and nothing more is persisted for them.
// Without a crash the interrupted campaigns' specs and last checkpoints
// remain, as after a kill. Safe to call twice.
func (d *daemon) kill() {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	d.sch.Drain(ctx)
	d.streams.Wait()
	d.st.Close()
}

// stop is the graceful shutdown of POST /drain: checkpoint every
// running campaign into the store, then close.
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := d.drainToStore(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	d.streams.Wait()
	if err := d.st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// post drives handleSubmit with body and returns the status code.
func (d *daemon) post(body string) int {
	rec := httptest.NewRecorder()
	d.handleSubmit(rec, httptest.NewRequest(http.MethodPost, "/submit", strings.NewReader(body)))
	return rec.Code
}

// postReq submits req through handleSubmit.
func (d *daemon) postReq(t *testing.T, req campaignReq) int {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return d.post(string(b))
}

// campaignStates reads GET /campaigns into tag -> state.
func (d *daemon) campaignStates(t *testing.T) map[string]string {
	t.Helper()
	rec := httptest.NewRecorder()
	d.handleCampaigns(rec, httptest.NewRequest(http.MethodGet, "/campaigns", nil))
	var lines []struct{ Tenant, Campaign, State string }
	if err := json.Unmarshal(rec.Body.Bytes(), &lines); err != nil {
		t.Fatalf("/campaigns: %v", err)
	}
	out := make(map[string]string)
	for _, l := range lines {
		out[l.Tenant+"/"+l.Campaign] = l.State
	}
	return out
}

// waitCompleted blocks until every campaign of reqs reports completed.
func (d *daemon) waitCompleted(t *testing.T, reqs []campaignReq) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		states := d.campaignStates(t)
		all := true
		for _, r := range reqs {
			all = all && states[r.Tenant+"/"+r.Name] == "completed"
		}
		if all {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaigns not completed: %v", states)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitRunning polls until n campaigns run at once. It gives up once
// fewer than n are queued or running.
func (d *daemon) waitRunning(n int) bool {
	for {
		running, live := 0, 0
		for _, cs := range d.sch.Status() {
			switch cs.State {
			case beholder.CampaignRunning:
				running++
				live++
			case beholder.CampaignQueued:
				live++
			}
		}
		if running >= n || live < n {
			return running >= n
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// checkStores opens the stopped daemon's state dir and requires every
// campaign's final store byte-equal to its solo run.
func checkStores(t *testing.T, stateDir string, reqs []campaignReq) {
	t.Helper()
	st, err := store.Open(store.Config{Dir: stateDir, KeepSuffixes: []string{".stream.ndjson"}})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, r := range reqs {
		got, err := st.Get(storeKey(r.Tenant, r.Name), kindStore)
		if err != nil {
			t.Fatalf("final store for %s/%s: %v", r.Tenant, r.Name, err)
		}
		if want := soloStoreBytes(t, r); !bytes.Equal(got, want) {
			t.Fatalf("%s/%s: store differs from its solo run (%d vs %d bytes)", r.Tenant, r.Name, len(got), len(want))
		}
	}
}

// TestCleanSoakZeroQuarantine pins the clean-run guarantee: a
// campaign set that completes and drains must leave a state dir whose
// next startup scrubs clean — zero quarantined files — and retains the
// campaigns as completed instead of re-running them.
func TestCleanSoakZeroQuarantine(t *testing.T) {
	stateDir := filepath.Join(t.TempDir(), "state")
	reqs := soakCampaigns(t)
	d := startTestDaemon(t, soakOptions(stateDir, 5*time.Millisecond, nil))
	for _, r := range reqs {
		if code := d.postReq(t, r); code != http.StatusOK {
			t.Fatalf("submit %s: %d", r.Name, code)
		}
	}
	d.waitCompleted(t, reqs)
	d.stop(t)
	checkStores(t, stateDir, reqs)

	d = startTestDaemon(t, soakOptions(stateDir, 5*time.Millisecond, nil))
	if v := d.reg.Counter("store_quarantined_total").Value(); v != 0 {
		t.Fatalf("store_quarantined_total = %d, want 0 on a clean restart", v)
	}
	if st := d.sch.Status(); len(st) != 0 {
		t.Fatalf("completed campaigns re-run: %+v", st)
	}
	d.waitCompleted(t, reqs)
	d.stop(t)
}

// TestCorruptQuarantine plants corruption — a bit-flipped checkpoint,
// an alien blob, and a torn manifest tail — into the state dir of a
// daemon whose filesystem crashed mid-run. The daemon must still
// start, quarantine the damage, and recover every campaign: the
// corrupted one degraded to a fresh run from its pinned spec, the other
// resumed from what survived. Both must still end byte-equal to their
// solo runs.
func TestCorruptQuarantine(t *testing.T) {
	stateDir := filepath.Join(t.TempDir(), "state")
	reqs := longCampaigns(t, 2)
	ffs := faultfs.New(store.OS, 1)
	d := startTestDaemon(t, soakOptions(stateDir, time.Millisecond, ffs))
	for _, r := range reqs {
		if code := d.postReq(t, r); code != http.StatusOK {
			t.Fatalf("submit %s: %d", r.Name, code)
		}
	}
	// Crash as soon as the first campaign has a checkpoint: it is
	// committed, so it survives.
	key := storeKey(reqs[0].Tenant, reqs[0].Name)
	for {
		if _, err := d.st.Get(key, kindCkpt); err == nil {
			break
		}
		if d.campaignStates(t)[reqs[0].Tenant+"/"+reqs[0].Name] == "completed" {
			t.Fatal("the first campaign completed before its first checkpoint")
		}
		time.Sleep(100 * time.Microsecond)
	}
	ffs.Arm(faultfs.Rule{Fault: faultfs.Crash, At: ffs.Ops() + 1})
	select {
	case <-ffs.Crashed():
	case <-time.After(time.Minute):
		t.Fatal("no filesystem operation after the checkpoint")
	}
	d.kill()

	st, err := store.Open(store.Config{Dir: stateDir, KeepSuffixes: []string{".stream.ndjson"}})
	if err != nil {
		t.Fatal(err)
	}
	var ckpt string
	for _, e := range st.List() {
		if e.Key == key && e.Kind == kindCkpt {
			ckpt = filepath.Join(stateDir, e.File)
		}
	}
	st.Close()
	if ckpt == "" {
		t.Fatal("the first campaign's checkpoint did not survive the crash")
	}
	blob, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0xFF
	if err := os.WriteFile(ckpt, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(stateDir, "phantom.999.ckpt"), []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	mf, err := os.OpenFile(filepath.Join(stateDir, "manifest.log"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	mf.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x01})
	mf.Close()

	d = startTestDaemon(t, soakOptions(stateDir, 0, nil))
	if v := d.reg.Counter("store_quarantined_total").Value(); v < 2 {
		t.Fatalf("store_quarantined_total = %d, want >= 2", v)
	}
	if rep := d.st.Report(); rep.JournalTruncated != 5 {
		t.Fatalf("torn manifest tail: %+v", rep)
	}
	d.waitCompleted(t, reqs)
	d.stop(t)
	checkStores(t, stateDir, reqs)
	if q, _ := filepath.Glob(filepath.Join(stateDir, "corrupt", "*")); len(q) < 2 {
		t.Fatalf("expected quarantined files in corrupt/, found %v", q)
	}
}
