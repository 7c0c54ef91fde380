package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"beholder"
	"beholder/internal/store"
)

// newTestDaemon builds an in-process daemon over a small universe and a
// throwaway state dir, for driving the HTTP handlers directly.
func newTestDaemon(t *testing.T) *daemon {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(store.Config{Dir: dir, KeepSuffixes: []string{".stream.ndjson"}})
	if err != nil {
		t.Fatal(err)
	}
	in := beholder.NewSmallInternet(5)
	sch, err := in.NewScheduler(beholder.SchedulerOptions{Tenants: []beholder.Tenant{{Name: "alice"}}})
	if err != nil {
		t.Fatal(err)
	}
	d := &daemon{
		in: in, sch: sch, st: st, stateDir: dir,
		tenants:  map[string]bool{"alice": true},
		vantages: map[string]*beholder.Vantage{},
		done:     make(chan struct{}),
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if _, err := sch.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
		d.streams.Wait()
		if err := st.Close(); err != nil {
			t.Errorf("store close: %v", err)
		}
	})
	return d
}

// post drives handleSubmit with body and returns the status code.
func (d *daemon) post(body string) int {
	rec := httptest.NewRecorder()
	d.handleSubmit(rec, httptest.NewRequest(http.MethodPost, "/submit", strings.NewReader(body)))
	return rec.Code
}

// TestSubmitHostileBodies: a /submit body is outside input. Oversized,
// unknown-field, trailing-data and unrunnable submissions are refused
// promptly with the right status and admit nothing — a seed-list scale
// or zn out of bounds before any target generation; an unknown tenant,
// a target that does not parse or a vantage name outside the store's
// alphabet before the vantage is materialized; a well-formed one still
// queues.
func TestSubmitHostileBodies(t *testing.T) {
	d := newTestDaemon(t)
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
