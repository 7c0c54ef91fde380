package main

// Process-level crash-injection soak for beholderd. The test binary
// re-executes itself as the real daemon (TestMain), and the harness
// SIGKILLs it at randomized wall-clock points — mid-run,
// mid-periodic-checkpoint, mid-drain — then restarts it on the same
// state dir. Every campaign must come back and finish with a final
// store byte-equal to its solo fault-free run; the durable store must
// never fail a startup, whatever instant the kill landed on.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"beholder"
	"beholder/internal/store"
	"beholder/internal/testutil"
)

func TestMain(m *testing.M) {
	if os.Getenv("BEHOLDERD_CRASHSOAK_CHILD") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const (
	soakSeed    = 2018
	soakVantage = "US-EDU-1"
)

// soakClient disables keep-alives so no idle-connection goroutines park
// in a shared transport pool and trip the leak checker.
var soakClient = &http.Client{
	Timeout:   90 * time.Second,
	Transport: &http.Transport{DisableKeepAlives: true},
}

// soakCampaigns is the shared multi-tenant campaign set: wall-slowed
// by the daemon's -send-delay so kills land mid-flight, but with
// identical virtual-time results to an unthrottled run.
func soakCampaigns(t *testing.T) []campaignReq {
	t.Helper()
	in := beholder.NewSmallInternet(soakSeed)
	all, err := in.TargetSet("caida", 64, "lowbyte1", 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < 36 {
		t.Fatalf("only %d targets from the small universe", len(all))
	}
	per := len(all) / 3
	if per > 36 {
		per = 36
	}
	slice := func(i int) targetList { return targetList{addrs: all[i*per : (i+1)*per]} }
	reqs := []campaignReq{
		{Tenant: "alice", Name: "c1", Targets: slice(0), Rate: 800, MaxTTL: 10, Fill: true, Key: 21, Shards: 2, Batch: 1},
		{Tenant: "alice", Name: "c2", Targets: slice(1), Rate: 600, MaxTTL: 12, Fill: true, Key: 22, Shards: 2, Batch: 1},
		{Tenant: "bob", Name: "c3", Targets: slice(2), Rate: 1000, MaxTTL: 8, Fill: true, Key: 23, Shards: 3, Batch: 1},
	}
	return reqs
}

// soloStoreBytes runs one campaign supervised but fault-free and
// unthrottled on a fresh identically-seeded universe and returns the
// final store's canonical encoding. The daemon's crash-riddled run
// must reproduce these exact bytes.
func soloStoreBytes(t *testing.T, req campaignReq) []byte {
	t.Helper()
	in := beholder.NewSmallInternet(soakSeed)
	sch, err := in.NewScheduler(beholder.SchedulerOptions{
		Tenants: []beholder.Tenant{{Name: req.Tenant}},
		Workers: 1,
	})
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
		t.Fatalf("solo %s/%s: state %v (%s)", req.Tenant, req.Name, res.State, res.Reason)
	}
	if _, err := sch.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	return res.Store.AppendBinary(nil)
}

// daemonProc is one live beholderd subprocess.
type daemonProc struct {
	t      *testing.T
	cmd    *exec.Cmd
	addr   string
	stderr string // file capturing the daemon's stderr
}

// startDaemon spawns a real beholderd on stateDir and waits for it to
// come up. Any startup failure is fatal — the crash soak demands zero
// of them.
func startDaemon(t *testing.T, stateDir string, extraArgs ...string) *daemonProc {
	t.Helper()
	scratch := t.TempDir()
	addrFile := filepath.Join(scratch, "addr")
	stderrPath := filepath.Join(scratch, "stderr.log")
	args := []string{
		"-small", "-sim-seed", strconv.Itoa(soakSeed),
		"-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-state-dir", stateDir,
		"-tenants", "alice,bob",
		"-workers", "3",
		"-stall-budget", "30s",
	}
	args = append(args, extraArgs...)
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "BEHOLDERD_CRASHSOAK_CHILD=1")
	errf, err := os.Create(stderrPath)
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = errf
	cmd.Stdout = errf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	errf.Close() // the child holds its own descriptor
	p := &daemonProc{t: t, cmd: cmd, stderr: stderrPath}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			p.addr = string(bytes.TrimSpace(b))
			return p
		}
		if time.Now().After(deadline) {
			p.dumpStderr()
			t.Fatal("daemon failed to start (no addr file)")
		}
		if p.cmd.ProcessState != nil {
			p.dumpStderr()
			t.Fatal("daemon exited before binding")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (p *daemonProc) dumpStderr() {
	if b, err := os.ReadFile(p.stderr); err == nil {
		p.t.Logf("daemon stderr:\n%s", b)
	}
}

// kill SIGKILLs the daemon and reaps it.
func (p *daemonProc) kill() {
	p.cmd.Process.Kill()
	p.cmd.Wait()
}

// waitExit reaps the process and requires a clean exit.
func (p *daemonProc) waitExit() {
	p.t.Helper()
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			p.dumpStderr()
			p.t.Fatalf("daemon exited uncleanly: %v", err)
		}
	case <-time.After(30 * time.Second):
		p.dumpStderr()
		p.cmd.Process.Kill()
		p.t.Fatal("daemon did not exit after drain")
	}
}

func (p *daemonProc) url(path string) string { return "http://" + p.addr + path }

func (p *daemonProc) post(path string, body any) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(b)
	}
	return soakClient.Post(p.url(path), "application/json", rd)
}

func (p *daemonProc) submit(req campaignReq) {
	p.t.Helper()
	resp, err := p.post("/submit", req)
	if err != nil {
		p.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		p.dumpStderr()
		p.t.Fatalf("submit %s/%s: %s: %s", req.Tenant, req.Name, resp.Status, b)
	}
}

// campaignStates polls GET /campaigns into tag -> state.
func (p *daemonProc) campaignStates() map[string]string {
	p.t.Helper()
	resp, err := soakClient.Get(p.url("/campaigns"))
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var lines []struct {
		Tenant   string `json:"tenant"`
		Campaign string `json:"campaign"`
		State    string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&lines); err != nil {
		return nil
	}
	out := make(map[string]string)
	for _, l := range lines {
		out[l.Tenant+"/"+l.Campaign] = l.State
	}
	return out
}

// waitCompleted blocks until every tag reports completed.
func (p *daemonProc) waitCompleted(tags []string, timeout time.Duration) {
	p.t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		states := p.campaignStates()
		all := len(states) > 0
		for _, tag := range tags {
			if states[tag] != "completed" {
				all = false
				break
			}
		}
		if all {
			return
		}
		if time.Now().After(deadline) {
			p.dumpStderr()
			p.t.Fatalf("campaigns not completed in %v: %v", timeout, states)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// metric scrapes one value from /metrics.
func (p *daemonProc) metric(name string) (int64, bool) {
	resp, err := soakClient.Get(p.url("/metrics"))
	if err != nil {
		return 0, false
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	for _, ln := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(ln, name+" ") {
			f := strings.Fields(ln)
			v, err := strconv.ParseFloat(f[len(f)-1], 64)
			if err != nil {
				return 0, false
			}
			return int64(v), true
		}
	}
	return 0, false
}

// drain POSTs /drain and requires success.
func (p *daemonProc) drain() {
	p.t.Helper()
	resp, err := p.post("/drain", nil)
	if err != nil {
		p.dumpStderr()
		p.t.Fatalf("drain: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		p.t.Fatalf("drain: %s", resp.Status)
	}
}

// soakArgs wall-slows sends and checkpoints aggressively so kills land
// inside interesting windows.
func soakArgs() []string {
	return []string{"-checkpoint-every", "30ms", "-send-delay", "300us"}
}

// TestCrashSoak is the kill-9 soak: three generations of randomized
// SIGKILL — mid-run, near the periodic-checkpoint cadence, and
// mid-drain — then a final generation that recovers everything and
// must produce stores byte-equal to solo fault-free runs.
func TestCrashSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("crash soak spawns real daemons")
	}
	testutil.NoGoroutineLeaks(t)
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	stateDir := filepath.Join(t.TempDir(), "state")
	reqs := soakCampaigns(t)
	var tags []string
	for _, r := range reqs {
		tags = append(tags, r.Tenant+"/"+r.Name)
	}

	// Generation 1: kill mid-run, well past a few checkpoint
	// intervals.
	p := startDaemon(t, stateDir, soakArgs()...)
	for _, r := range reqs {
		p.submit(r)
	}
	time.Sleep(time.Duration(100+rng.Intn(60)) * time.Millisecond)
	p.kill()
	t.Log("generation 1: killed mid-run")
	if cks, _ := filepath.Glob(filepath.Join(stateDir, "*.ckpt")); len(cks) == 0 {
		t.Fatal("no periodic checkpoint artifact survived generation 1 — kill loses more than one interval")
	}

	// Generation 2: recovery resumes from the snapshots; kill again,
	// randomized around the checkpoint cadence so some runs land
	// inside an interrupt/snapshot/resume cycle.
	p = startDaemon(t, stateDir, soakArgs()...)
	time.Sleep(time.Duration(45+rng.Intn(45)) * time.Millisecond)
	p.kill()
	t.Log("generation 2: killed near checkpoint cadence")

	// Generation 3: kill mid-drain — after the drain started
	// checkpointing but (usually) before it finished.
	p = startDaemon(t, stateDir, soakArgs()...)
	time.Sleep(25 * time.Millisecond)
	// The drain response may never come; the kill races it. The
	// goroutine unblocks on connection reset once the daemon dies.
	go func() {
		if resp, err := p.post("/drain", nil); err == nil {
			resp.Body.Close()
		}
	}()
	time.Sleep(time.Duration(3+rng.Intn(12)) * time.Millisecond)
	p.kill()
	t.Log("generation 3: killed mid-drain")

	// Final generation: everything must recover and complete.
	p = startDaemon(t, stateDir, soakArgs()...)
	p.waitCompleted(tags, 90*time.Second)
	p.drain()
	p.waitExit()

	// The daemon is gone; open its store directly and compare every
	// final campaign store byte-for-byte with solo fault-free runs.
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
		want := soloStoreBytes(t, r)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s/%s: store after %d kill generations differs from solo run (%d vs %d bytes)",
				r.Tenant, r.Name, 3, len(got), len(want))
		}
	}
}

// TestCleanSoakZeroQuarantine pins the clean-run guarantee: a
// campaign set that completes and drains without any kill must leave
// a state dir whose next startup scrubs clean — zero quarantined
// files, zero startup noise.
func TestCleanSoakZeroQuarantine(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real daemons")
	}
	stateDir := filepath.Join(t.TempDir(), "state")
	reqs := soakCampaigns(t)
	var tags []string
	for _, r := range reqs {
		tags = append(tags, r.Tenant+"/"+r.Name)
	}
	p := startDaemon(t, stateDir, soakArgs()...)
	for _, r := range reqs {
		p.submit(r)
	}
	p.waitCompleted(tags, 90*time.Second)
	p.drain()
	p.waitExit()

	p = startDaemon(t, stateDir, soakArgs()...)
	if v, ok := p.metric("store_quarantined_total"); !ok || v != 0 {
		p.dumpStderr()
		t.Fatalf("store_quarantined_total = %d (ok=%v), want 0 on a clean restart", v, ok)
	}
	// The completed campaigns are retained as terminal records, not
	// re-run.
	states := p.campaignStates()
	for _, tag := range tags {
		if states[tag] != "completed" {
			t.Fatalf("retained state for %s = %q, want completed (%v)", tag, states[tag], states)
		}
	}
	p.drain()
	p.waitExit()
}

// TestCorruptQuarantine plants corruption — a bit-flipped checkpoint,
// an alien blob, and a torn manifest tail — into a drained state dir.
// The daemon must still start, quarantine and report the damage, and
// recover every campaign: the intact one from its checkpoint, the
// corrupted one degraded to a fresh run from its pinned spec. Both
// must still end byte-equal to solo runs (determinism makes the
// degraded rerun converge to the same bytes).
func TestCorruptQuarantine(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real daemons")
	}
	stateDir := filepath.Join(t.TempDir(), "state")
	reqs := soakCampaigns(t)[:2]
	tags := []string{reqs[0].Tenant + "/" + reqs[0].Name, reqs[1].Tenant + "/" + reqs[1].Name}

	p := startDaemon(t, stateDir, soakArgs()...)
	for _, r := range reqs {
		p.submit(r)
	}
	// Let both campaigns run past a checkpoint, then drain cleanly so
	// the dir holds specs + mid-flight checkpoint artifacts.
	time.Sleep(80 * time.Millisecond)
	p.drain()
	p.waitExit()

	// Bit-flip the middle of c1's checkpoint artifact.
	cks, err := filepath.Glob(filepath.Join(stateDir, storeKey(reqs[0].Tenant, reqs[0].Name)+".*.ckpt"))
	if err != nil || len(cks) != 1 {
		t.Fatalf("checkpoint glob: %v %v", cks, err)
	}
	blob, err := os.ReadFile(cks[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) < 32 {
		t.Fatalf("artifact suspiciously small: %d bytes", len(blob))
	}
	blob[len(blob)/2] ^= 0xFF
	if err := os.WriteFile(cks[0], blob, 0o644); err != nil {
		t.Fatal(err)
	}
	// An alien blob the manifest has never heard of.
	if err := os.WriteFile(filepath.Join(stateDir, "phantom.999.ckpt"), []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	// And a torn manifest tail.
	mf, err := os.OpenFile(filepath.Join(stateDir, "manifest.log"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	mf.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x01})
	mf.Close()

	p = startDaemon(t, stateDir, soakArgs()...)
	if v, ok := p.metric("store_quarantined_total"); !ok || v < 2 {
		p.dumpStderr()
		t.Fatalf("store_quarantined_total = %d (ok=%v), want >= 2", v, ok)
	}
	p.waitCompleted(tags, 90*time.Second)
	p.drain()
	p.waitExit()

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
			t.Fatalf("%s/%s: store differs from solo run after corruption recovery", r.Tenant, r.Name)
		}
	}
	// The quarantined files are preserved for the operator.
	if q, _ := filepath.Glob(filepath.Join(stateDir, "corrupt", "*")); len(q) < 2 {
		t.Fatalf("expected quarantined files in corrupt/, found %v", q)
	}
}

// TestSignalDrain pins the SIGTERM path: a signal must run the same
// graceful drain as POST /drain — checkpoint to the store, flush and
// close streams, exit 0 — and a restart must finish the campaign.
func TestSignalDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real daemons")
	}
	stateDir := filepath.Join(t.TempDir(), "state")
	req := soakCampaigns(t)[0]
	p := startDaemon(t, stateDir, soakArgs()...)
	p.submit(req)
	time.Sleep(50 * time.Millisecond)
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	p.waitExit()

	cks, _ := filepath.Glob(filepath.Join(stateDir, "*.ckpt"))
	if len(cks) == 0 {
		t.Fatal("SIGTERM drain left no checkpoint artifact")
	}
	stream, err := os.ReadFile(filepath.Join(stateDir, storeKey(req.Tenant, req.Name)+".stream.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(stream), `"drained"`) {
		t.Fatal("stream file missing the drained event — shutdown lost the tail")
	}

	p = startDaemon(t, stateDir, soakArgs()...)
	p.waitCompleted([]string{req.Tenant + "/" + req.Name}, 90*time.Second)
	p.drain()
	p.waitExit()
}

func TestParseTenantsDuplicate(t *testing.T) {
	if _, err := parseTenants("alice,bob,alice"); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate tenant accepted: %v", err)
	}
	if _, err := parseTenants("we ird"); err == nil {
		t.Fatal("invalid tenant name accepted")
	}
	tl, err := parseTenants("alice:4000:2,bob")
	if err != nil || len(tl) != 2 || tl[0].RateBudget != 4000 || tl[0].Priority != 2 {
		t.Fatalf("parse: %+v %v", tl, err)
	}
}

var _ = fmt.Sprintf // keep fmt linked for debug edits
