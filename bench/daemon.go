package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemonProc is one live beholderd subprocess on a state directory of
// its own.
type daemonProc struct {
	cmd      *exec.Cmd
	addr     string
	stateDir string
	scratch  string        // address file and captured stderr
	exited   chan struct{} // closed once the process has been reaped
	admin    *http.Client
}

// startDaemon execs the prebuilt beholderd binary on a fresh state
// directory under tmp and waits until it listens. The caller must stop
// it on every path.
func startDaemon(ctx context.Context, bin, tmp string, args ...string) (*daemonProc, error) {
	scratch, err := os.MkdirTemp(tmp, "beholderd-")
	if err != nil {
		return nil, err
	}
	d := &daemonProc{
		stateDir: filepath.Join(scratch, "state"),
		scratch:  scratch,
		exited:   make(chan struct{}),
		admin:    &http.Client{Timeout: 30 * time.Second},
	}
	addrFile := filepath.Join(scratch, "addr")
	errFile, err := os.Create(filepath.Join(scratch, "stderr.log"))
	if err != nil {
		os.RemoveAll(scratch)
		return nil, err
	}
	defer errFile.Close() // the child holds its own descriptor
	d.cmd = exec.Command(bin, append([]string{
		"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-state-dir", d.stateDir,
	}, args...)...)
	d.cmd.Stdout, d.cmd.Stderr = errFile, errFile
	if err := d.cmd.Start(); err != nil {
		os.RemoveAll(scratch)
		return nil, err
	}
	go func() {
		d.cmd.Wait() // the exit status of a killed daemon carries nothing
		close(d.exited)
	}()
	deadline := time.After(60 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			d.addr = strings.TrimSpace(string(b))
			return d, nil
		}
		select {
		case <-d.exited:
			err = fmt.Errorf("beholderd exited before listening: %s", d.stderrTail())
		case <-deadline:
			err = fmt.Errorf("beholderd did not listen within 60s: %s", d.stderrTail())
		case <-ctx.Done():
			err = ctx.Err()
		case <-time.After(time.Millisecond):
			continue
		}
		d.stop()
		return nil, err
	}
}

func (d *daemonProc) stderrTail() string {
	b, _ := os.ReadFile(filepath.Join(d.scratch, "stderr.log"))
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// stop kills the daemon, waits until it has ended, and removes its
// state. Safe to call twice.
func (d *daemonProc) stop() {
	d.cmd.Process.Kill()
	<-d.exited
	d.admin.CloseIdleConnections()
	os.RemoveAll(d.scratch)
	// Pay for this daemon's writeback now: hundreds of MB of deleted
	// blobs left dirty would be flushed under the next instance's (or the
	// next run's) fsyncs and read as its latency.
	syscall.Sync()
}

func (d *daemonProc) url(path string) string { return "http://" + d.addr + path }

// counters is one scrape of the daemon's own accounting.
type counters struct {
	mallocs, totalAlloc       float64
	fsyncs, bytesWritten      float64
	checkpoints, sinkFailures float64
	cpuSeconds                float64 // user + system time of the daemon process
}

func (c counters) sub(b counters) counters {
	return counters{
		mallocs: c.mallocs - b.mallocs, totalAlloc: c.totalAlloc - b.totalAlloc,
		fsyncs: c.fsyncs - b.fsyncs, bytesWritten: c.bytesWritten - b.bytesWritten,
		checkpoints: c.checkpoints - b.checkpoints, sinkFailures: c.sinkFailures - b.sinkFailures,
		cpuSeconds: c.cpuSeconds - b.cpuSeconds,
	}
}

// scrape reads /metrics and the memstats under /debug/vars.
func (d *daemonProc) scrape() (counters, error) {
	var c counters
	resp, err := d.admin.Get(d.url("/metrics"))
	if err != nil {
		return c, err
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			continue
		}
		switch f[0] {
		case "store_fsync_total":
			c.fsyncs = v
		case "store_bytes_written_total":
			c.bytesWritten = v
		case "sched_checkpoints_total":
			c.checkpoints = v
		case "sched_checkpoint_sink_errors_total":
			c.sinkFailures = v
		}
	}
	resp.Body.Close()
	if err := sc.Err(); err != nil {
		return c, err
	}
	resp, err = d.admin.Get(d.url("/debug/vars"))
	if err != nil {
		return c, err
	}
	defer resp.Body.Close()
	var vars struct {
		Memstats struct {
			Mallocs    float64
			TotalAlloc float64
		} `json:"memstats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		return c, fmt.Errorf("/debug/vars: %w", err)
	}
	c.mallocs, c.totalAlloc = vars.Memstats.Mallocs, vars.Memstats.TotalAlloc
	c.cpuSeconds, err = d.cpuSeconds()
	return c, err
}

// cpuSeconds reads the daemon's consumed CPU time from /proc/<pid>/stat
// (fields 14 and 15, utime and stime, in clock ticks of 1/100 s — the
// kernel's USER_HZ, fixed on Linux).
func (d *daemonProc) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) is parenthesised and may hold spaces;
	// the numbered fields resume after the last ')'.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc stat: %d fields", len(f))
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc stat: bad utime/stime %q %q", f[11], f[12])
	}
	return (utime + stime) / 100, nil
}

// peakRSSMB reads the daemon's resident-set high-water mark.
func (d *daemonProc) peakRSSMB() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, ln := range strings.Split(string(b), "\n") {
		if f := strings.Fields(ln); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// frames is what the manifest tailer saw of one campaign: the instant
// each of its commit frames became visible in manifest.log, and the
// blob file each names. done is closed at the kind=done frame — the
// moment the campaign's result is durable.
type frames struct {
	at   map[string]time.Time
	file map[string]string
	done chan struct{}
}

// tailer follows the store's manifest journal from outside the daemon:
// one goroutine that blocks on inotify (or, where inotify is not to be
// had, sleeps a millisecond between size checks), parses the CRC-framed
// records appended since, and timestamps them.
type tailer struct {
	f      *os.File
	notify *os.File // nil: polling
	stop   chan struct{}
	ended  chan struct{}

	mu    sync.Mutex
	byKey map[string]*frames
}

func newTailer(stateDir string) (*tailer, error) {
	path := filepath.Join(stateDir, "manifest.log")
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	t := &tailer{f: f, stop: make(chan struct{}), ended: make(chan struct{}), byKey: make(map[string]*frames)}
	if fd, err := syscall.InotifyInit1(syscall.IN_CLOEXEC | syscall.IN_NONBLOCK); err == nil {
		if _, err := syscall.InotifyAddWatch(fd, path, syscall.IN_MODIFY); err == nil {
			t.notify = os.NewFile(uintptr(fd), "inotify")
		} else {
			syscall.Close(fd)
		}
	}
	go t.run()
	return t, nil
}

// watch registers a campaign key before its submit, so no frame of it
// can be seen unclaimed.
func (t *tailer) watch(key string) *frames {
	fr := &frames{at: make(map[string]time.Time), file: make(map[string]string), done: make(chan struct{})}
	t.mu.Lock()
	t.byKey[key] = fr
	t.mu.Unlock()
	return fr
}

func (t *tailer) close() {
	close(t.stop)
	if t.notify != nil {
		t.notify.Close() // unblocks the pending read
	}
	<-t.ended
	t.f.Close()
}

func (t *tailer) run() {
	defer close(t.ended)
	var pending []byte
	chunk := make([]byte, 64<<10)
	events := make([]byte, 4096)
	for {
		for {
			n, err := t.f.Read(chunk)
			pending = append(pending, chunk[:n]...)
			if n == 0 || err != nil {
				break
			}
		}
		pending = t.consume(pending)
		if t.notify != nil {
			if _, err := t.notify.Read(events); err != nil {
				return
			}
			continue
		}
		select {
		case <-t.stop:
			return
		case <-time.After(time.Millisecond):
		}
	}
}

// consume parses every complete frame at the head of buf —
// [u32 len][u32 crc32][JSON], the store's journal format — and returns
// the unparsed tail.
func (t *tailer) consume(buf []byte) []byte {
	now := time.Now()
	for len(buf) >= 8 {
		n := int(binary.LittleEndian.Uint32(buf))
		if len(buf) < 8+n {
			break
		}
		payload := buf[8 : 8+n]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(buf[4:]) {
			break // a frame still being written; the next wake-up re-reads it whole
		}
		buf = buf[8+n:]
		var rec struct {
			Op   string `json:"op"`
			Key  string `json:"key"`
			Kind string `json:"kind"`
			File string `json:"file"`
		}
		if json.Unmarshal(payload, &rec) != nil || rec.Op != "put" {
			continue
		}
		t.mu.Lock()
		fr := t.byKey[rec.Key]
		t.mu.Unlock()
		if fr == nil {
			continue
		}
		if _, seen := fr.at[rec.Kind]; seen {
			continue // a later generation (periodic checkpoints): keep the first
		}
		fr.at[rec.Kind] = now
		fr.file[rec.Kind] = rec.File
		if rec.Kind == "done" {
			close(fr.done)
		}
	}
	return buf
}

// sample is one campaign as a client saw it.
type sample struct {
	tenant, index int
	key           string // store key, tenant__name
	measured      bool
	submit        time.Time // just before writing POST /submit
	replied       time.Time // HTTP response fully read
	fr            *frames
	err           error
}

// script is a tenant's closed-loop behaviour: what it submits as its
// i-th campaign.
type script struct {
	tenants int
	warm    int                                            // discarded campaigns per client
	count   int                                            // measured campaigns per client
	body    func(tenant, i int) (name string, body []byte) // the /submit request
	probes  int64                                          // probes per campaign (no fill: targets × TTLs)
}

// drive runs the closed loop against d: one goroutine and one
// keep-alive connection per tenant, each submitting its next campaign
// only after the previous one's done frame is durable. The warm-up
// campaigns run first; then, between two scrapes of the daemon's
// counters, sc.count measured ones per client — a count, not a clock,
// ends the region, because the daemon slows as it accumulates results,
// and two runs compare only if they took it equally far. limit stops a
// client that would overrun it. It returns the samples, the counter
// deltas over the measured region and its bounds.
func drive(ctx context.Context, d *daemonProc, tl *tailer, sc script, limit time.Duration) (samples []sample, delta counters, start, end time.Time, err error) {
	var (
		mu       sync.Mutex
		warmed   sync.WaitGroup
		clients  sync.WaitGroup
		release  = make(chan struct{})
		deadline time.Time
	)
	client := func(tenant int) {
		defer clients.Done()
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		defer tr.CloseIdleConnections()
		hc := &http.Client{Transport: tr, Timeout: 120 * time.Second}
		var last time.Duration
		warm := true
		defer func() {
			if warm {
				warmed.Done() // failed during warm-up: do not strand the others at the barrier
			}
		}()
		for i := 0; ; i++ {
			if i == sc.warm {
				warm = false
				warmed.Done()
				select {
				case <-release:
				case <-ctx.Done():
					return
				}
			}
			measured := i >= sc.warm
			if i == sc.warm+sc.count || (i > sc.warm && time.Now().Add(last).After(deadline)) {
				return
			}
			name, body := sc.body(tenant, i)
			s := sample{tenant: tenant, index: i, key: fmt.Sprintf("t%d__%s", tenant, name), measured: measured}
			s.fr = tl.watch(s.key)
			s.submit = time.Now()
			resp, err := hc.Post(d.url("/submit"), "application/json", bytes.NewReader(body))
			if err == nil {
				var msg []byte
				msg, err = io.ReadAll(resp.Body)
				resp.Body.Close()
				if err == nil && resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("submit %s: %s: %s", s.key, resp.Status, bytes.TrimSpace(msg))
				}
			}
			s.replied = time.Now()
			if err == nil {
				select {
				case <-s.fr.done:
				case <-time.After(120 * time.Second):
					err = fmt.Errorf("%s: no durable done record within 120s", s.key)
				case <-ctx.Done():
					return
				}
			}
			s.err = err
			last = time.Since(s.submit)
			mu.Lock()
			samples = append(samples, s)
			mu.Unlock()
			if err != nil {
				return // a refused or lost campaign ends this tenant's script
			}
		}
	}
	warmed.Add(sc.tenants)
	clients.Add(sc.tenants)
	for t := 0; t < sc.tenants; t++ {
		go client(t)
	}
	warmed.Wait()
	before, err := d.scrape()
	start = time.Now()
	deadline = start.Add(limit)
	close(release)
	clients.Wait()
	if err != nil {
		return nil, delta, start, end, err
	}
	if err := ctx.Err(); err != nil {
		return nil, delta, start, end, err
	}
	for _, s := range samples {
		if s.measured && s.err == nil && s.fr.at["done"].After(end) {
			end = s.fr.at["done"]
		}
	}
	after, err := d.scrape()
	if err != nil {
		return nil, delta, start, end, err
	}
	return samples, after.sub(before), start, end, nil
}
