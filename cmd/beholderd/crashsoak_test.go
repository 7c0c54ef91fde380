package main

// Real-process checks of what an in-process daemon cannot show: the
// kernel's fsync semantics under SIGKILL, and the signal-driven drain.
// The test binary re-executes itself as the daemon (TestMain). Both
// tests act on stream events of a campaign long enough to outlive the
// kill, and the seeded crash-and-reopen harness (TestCrashReopen) covers
// the crash points in-process.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestMain(m *testing.M) {
	if os.Getenv("BEHOLDERD_CRASHSOAK_CHILD") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// soakClient disables keep-alives so no idle-connection goroutines park
// in a shared transport pool.
var soakClient = &http.Client{
	Timeout:   90 * time.Second,
	Transport: &http.Transport{DisableKeepAlives: true},
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

// waitEvent blocks until the stream file at path holds an event of
// the given type.
func (p *daemonProc) waitEvent(path, event string) {
	p.t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if b, _ := os.ReadFile(path); bytes.Contains(b, []byte(`"event":"`+event+`"`)) {
			return
		}
		if time.Now().After(deadline) {
			p.dumpStderr()
			p.t.Fatalf("no %s event in %s", event, path)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCrashSoak is the real-process SIGKILL smoke: a daemon killed
// right after its campaign's first periodic checkpoint restarts on the
// same state dir, resumes from that checkpoint, and finishes with a
// store byte-equal to the solo run.
func TestCrashSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real daemons")
	}
	stateDir := filepath.Join(t.TempDir(), "state")
	req := longCampaigns(t, 1)[0]
	streamPath := filepath.Join(stateDir, storeKey(req.Tenant, req.Name)+".stream.ndjson")
	p := startDaemon(t, stateDir, "-checkpoint-every", "10ms")
	p.submit(req)
	p.waitEvent(streamPath, "checkpoint")
	p.kill()
	if cks, _ := filepath.Glob(filepath.Join(stateDir, "*.ckpt")); len(cks) == 0 {
		t.Fatal("no checkpoint artifact survived the kill")
	}

	p = startDaemon(t, stateDir, "-checkpoint-every", "10ms")
	p.waitEvent(streamPath, "completed")
	p.drain()
	p.waitExit()
	checkStores(t, stateDir, []campaignReq{req})
}

// TestSignalDrain pins the SIGTERM path: a signal must run the same
// graceful drain as POST /drain — checkpoint to the store, flush and
// close streams, exit 0 — and a restart must finish the campaign.
func TestSignalDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real daemons")
	}
	stateDir := filepath.Join(t.TempDir(), "state")
	req := longCampaigns(t, 1)[0]
	streamPath := filepath.Join(stateDir, storeKey(req.Tenant, req.Name)+".stream.ndjson")
	p := startDaemon(t, stateDir, "-checkpoint-every", "10ms")
	p.submit(req)
	p.waitEvent(streamPath, "checkpoint")
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	p.waitExit()

	if cks, _ := filepath.Glob(filepath.Join(stateDir, "*.ckpt")); len(cks) == 0 {
		t.Fatal("SIGTERM drain left no checkpoint artifact")
	}
	stream, err := os.ReadFile(streamPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(stream), `"drained"`) {
		t.Fatal("stream file missing the drained event — shutdown lost the tail")
	}

	p = startDaemon(t, stateDir, "-checkpoint-every", "10ms")
	p.waitEvent(streamPath, "completed")
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	p.waitExit()
	checkStores(t, stateDir, []campaignReq{req})
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
