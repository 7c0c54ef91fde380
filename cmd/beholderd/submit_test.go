package main

import (
	"context"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"beholder"
	"beholder/internal/store"
	"beholder/internal/store/faultfs"
)

// aliceDaemon is a daemon over small universe 5 with the one tenant
// alice and a throwaway state dir, for driving the HTTP handlers.
func aliceDaemon(t *testing.T) *daemon {
	return startTestDaemon(t, options{
		SchedulerOptions: beholder.SchedulerOptions{Tenants: []beholder.Tenant{{Name: "alice"}}},
		simSeed:          5, small: true, stateDir: t.TempDir(),
	})
}

// TestSubmitHostileBodies: a /submit body is outside input. Oversized,
// unknown-field, trailing-data and unrunnable submissions are refused
// promptly with the right status and admit nothing — a seed-list scale
// or zn out of bounds before any target generation; an unknown tenant,
// a target that does not parse or a vantage name outside the store's
// alphabet before the vantage is materialized; a well-formed one still
// queues.
func TestSubmitHostileBodies(t *testing.T) {
	d := aliceDaemon(t)
	const ok = `{"tenant":"alice","name":"c1","targets":["2001:db8::1","2001:db8::2"],"maxttl":4}`
	cases := []struct {
		name, body string
		want       int
	}{
		{"oversized", `{"tenant":"alice","name":"big","synth":"` + strings.Repeat("x", maxSubmitBytes) + `"}`, http.StatusRequestEntityTooLarge},
		{"unknown field", `{"tenant":"alice","name":"u","targets":["2001:db8::1"],"ratee":5}`, http.StatusBadRequest},
		{"trailing object", ok + `{"tenant":"alice","name":"c2"}`, http.StatusBadRequest},
		{"trailing garbage", ok + ` }`, http.StatusBadRequest},
		{"not json", `tenant=alice`, http.StatusBadRequest},
		{"rate beyond the clock", `{"tenant":"alice","name":"fast","targets":["2001:db8::1"],"rate":2e9}`, http.StatusBadRequest},
		{"scale 1e6", `{"tenant":"alice","name":"huge","scale":1e6}`, http.StatusBadRequest},
		{"negative scale", `{"tenant":"alice","name":"neg","scale":-1}`, http.StatusBadRequest},
		{"zn -5", `{"tenant":"alice","name":"zneg","zn":-5}`, http.StatusBadRequest},
		{"zn 200", `{"tenant":"alice","name":"zbig","zn":200}`, http.StatusBadRequest},
		{"unknown tenant", `{"tenant":"mallory","name":"x","vantage":"V-NEW","scale":4}`, http.StatusForbidden},
		{"bad target", `{"tenant":"alice","name":"x","vantage":"V-NEW","targets":["nope"]}`, http.StatusBadRequest},
		{"bad vantage name", `{"tenant":"alice","name":"y","vantage":"a/b","targets":["2001:db8::1"]}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		code := make(chan int, 1)
		go func() { code <- d.post(c.body) }()
		select {
		case got := <-code:
			if got != c.want {
				t.Errorf("%s: status %d, want %d", c.name, got, c.want)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("%s: no answer within 20s", c.name)
		}
	}
	if st := d.sch.Status(); len(st) != 0 {
		t.Fatalf("hostile submissions admitted %d campaign(s): %+v", len(st), st)
	}
	d.mu.Lock()
	for name := range d.vantages {
		if name == "V-NEW" || name == "a/b" {
			t.Errorf("a refused submission materialized vantage %q", name)
		}
	}
	d.mu.Unlock()
	if got := d.post(ok + "\n"); got != http.StatusOK {
		t.Fatalf("valid body: status %d", got)
	}
	if st := d.sch.Status(); len(st) != 1 || st[0].Campaign != "c1" {
		t.Fatalf("valid body admitted %+v", st)
	}
}

// TestRateBeyondClockRejected: a probing rate above 1e9 pps has an
// inter-probe gap of zero nanoseconds, which parks the virtual clock
// short of the drain deadline forever. Every entry point must refuse it
// with a configuration error instead of wedging a prober (the /submit
// leg is a TestSubmitHostileBodies case).
func TestRateBeyondClockRejected(t *testing.T) {
	in := beholder.NewSmallInternet(5)
	v := in.NewVantage("US-EDU-1")
	targets, err := in.TargetSet("caida", 64, "lowbyte1", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	targets = targets[:50]
	sch, err := in.NewScheduler(beholder.SchedulerOptions{Tenants: []beholder.Tenant{{Name: "alice"}}})
	if err != nil {
		t.Fatal(err)
	}
	defer sch.Drain(context.Background())

	errs := make(chan error, 2) // one send per entry point below
	go func() {
		_, err := v.RunYarrp6(targets, beholder.YarrpOptions{Rate: 2e9})
		errs <- err
	}()
	go func() {
		_, err := sch.Submit(in.NewVantage("US-EDU-2"), targets, beholder.SubmitOptions{Tenant: "alice", Name: "fast", Rate: 2e9})
		errs <- err
	}()
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err == nil || !strings.Contains(err.Error(), "pps") {
				t.Errorf("rate 2e9 pps: got %v, want a rate configuration error", err)
			}
		case <-time.After(20 * time.Second):
			t.Fatal("a 2e9 pps run did not return: the prober is wedged")
		}
	}
}

// TestSubmitDurable: a /submit answered 200 is durable, and one whose
// spec the store cannot make durable admits nothing. A spec whose fsync
// fails is refused with a 5xx and leaves no campaign in the scheduler.
// A resubmission of a completed campaign, crashed right after its
// admission, comes back live — the older done record does not shadow
// it — and completes to its solo bytes.
func TestSubmitDurable(t *testing.T) {
	reqs := soakCampaigns(t)
	stateDir := filepath.Join(t.TempDir(), "state")
	ffs := faultfs.New(store.OS, 1)
	d := startTestDaemon(t, soakOptions(stateDir, 0, ffs))
	ffs.Arm(faultfs.Rule{Fault: faultfs.SyncEIO, At: ffs.Ops() + 1})
	if code := d.postReq(t, reqs[0]); code < 500 {
		t.Fatalf("submission whose spec fsync failed: status %d, want 5xx", code)
	}
	if st := d.sch.Status(); len(st) != 0 {
		t.Fatalf("a submission that is not durable was admitted: %+v", st)
	}

	r := reqs[1]
	if code := d.postReq(t, r); code != http.StatusOK {
		t.Fatalf("submit: %d", code)
	}
	for {
		if _, err := d.st.Get(storeKey(r.Tenant, r.Name), kindDone); err == nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	// The resubmission's spec Put takes eight operations; crash at the
	// first one after it.
	ffs.Arm(faultfs.Rule{Fault: faultfs.Crash, At: ffs.Ops() + 9})
	if code := d.postReq(t, r); code != http.StatusOK {
		t.Fatalf("resubmit: %d", code)
	}
	select {
	case <-ffs.Crashed():
	case <-time.After(time.Minute):
		t.Fatal("no filesystem operation after the resubmission's spec")
	}
	d.kill()

	d = startTestDaemon(t, soakOptions(stateDir, 0, nil))
	if st := d.sch.Status(); len(st) != 1 || st[0].Campaign != r.Name {
		t.Fatalf("resubmission answered 200 not recovered as live: %+v, retained %+v", st, d.retained)
	}
	d.waitCompleted(t, []campaignReq{r})
	d.stop(t)
	checkStores(t, stateDir, []campaignReq{r})
}
