package main

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"beholder"
	"beholder/internal/store"
	"beholder/internal/store/faultfs"
	"beholder/internal/testutil"
)

// crashSeeds is how many seeds TestCrashReopen runs; -short runs the
// first shortCrashSeeds.
const crashSeeds, shortCrashSeeds = 32, 3

// TestCrashReopen is the seeded crash-and-reopen harness. For each seed
// it runs the soak campaigns through generations of in-process daemons
// on one state dir, each on a fault layer that crashes at a seeded
// filesystem step — one generation crashes inside a drain — and each
// reopening on the disk image the crash left. A final fault-free
// generation must finish every campaign byte-equal to its solo run.
// Between generations every campaign a /submit answered 200 must be
// back, and none it refused. A failure replays with
// go test -run 'TestCrashReopen/seed=N$' ./cmd/beholderd.
func TestCrashReopen(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	reqs := soakCampaigns(t)
	for _, r := range reqs {
		soloStoreBytes(t, r)
	}
	n := uint64(crashSeeds)
	if testing.Short() {
		n = shortCrashSeeds
	}
	for seed := uint64(1); seed <= n; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { crashReopen(t, seed, reqs) })
	}
}

// Lower bounds on the filesystem operations still to come, which keep a
// seeded crash step inside what a generation is sure to reach: a Put
// is at least eight (temp create, write, fsync, close, rename,
// directory fsync, journal write and fsync), a completing campaign
// persists two (its store and its done record), and a submission adds
// its spec.
const (
	putOps        = 8
	persistOps    = 2 * putOps
	submissionOps = putOps + persistOps
)

// crashReopen runs one seed's generations on a fresh state dir.
func crashReopen(t *testing.T, seed uint64, reqs []campaignReq) {
	dir := filepath.Join(t.TempDir(), "state")
	admitted := map[string]bool{}
	drainAt := int(draw(seed, 0) % 3)
	crashes, drainCrashed := 0, false
	for g := 0; crashes < 3 || !drainCrashed; g++ {
		if g == 12 {
			t.Fatalf("%d generations without %d crashes, one inside a drain (%d, %v)", g, 3, crashes, drainCrashed)
		}
		ffs := faultfs.New(store.OS, seed)
		d := startTestDaemon(t, soakOptions(dir, 2*time.Millisecond, ffs))
		checkAdmitted(t, d, reqs, admitted)
		k := draw(seed, uint64(g)+1)
		if g >= drainAt && !drainCrashed {
			// Crash within the first Put of a drain that checkpoints
			// the running campaigns.
			submit(t, d, reqs, admitted, 0)
			if liveCampaigns(d) == 0 {
				rerun(t, d, reqs, k, http.StatusOK)
			}
			d.waitRunning(liveCampaigns(d))
			ffs.Arm(faultfs.Rule{Fault: faultfs.Crash, At: ffs.Ops() + 1 + k%putOps})
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			d.drainToStore(ctx)
			cancel()
			end := ffs.Ops() // stops counting at a crash
			ffs.Disarm()
			// Without a crash, every campaign finished before the
			// drain reached it: drain again next generation.
			if fired := ffs.Fired(); len(fired) > 0 {
				crashes++
				drainCrashed = fired[0] <= end
			}
		} else {
			base := ffs.Ops()
			live, pending := liveCampaigns(d), 0
			for _, r := range reqs {
				if !admitted[r.Tenant+"/"+r.Name] {
					pending++
				}
			}
			bound := live*persistOps + pending*submissionOps
			if bound == 0 {
				bound = submissionOps
			}
			ffs.Arm(faultfs.Rule{Fault: faultfs.Crash, At: base + 1 + k%uint64(bound)})
			if pending > 0 {
				submit(t, d, reqs, admitted, 0)
			} else if live == 0 {
				rerun(t, d, reqs, k, 0)
			}
			select {
			case <-ffs.Crashed():
				crashes++
			case <-time.After(2 * time.Minute):
				t.Fatalf("generation %d: no crash by operation %d", g, base+1+k%uint64(bound))
			}
		}
		d.kill()
	}

	d := startTestDaemon(t, soakOptions(dir, 2*time.Millisecond, nil))
	checkAdmitted(t, d, reqs, admitted)
	submit(t, d, reqs, admitted, http.StatusOK)
	d.waitCompleted(t, reqs)
	d.stop(t)
	checkStores(t, dir, reqs)
}

// submit posts every campaign not yet admitted and records those
// answered 200. want, when nonzero, is the only status accepted.
func submit(t *testing.T, d *daemon, reqs []campaignReq, admitted map[string]bool, want int) {
	t.Helper()
	for _, r := range reqs {
		tag := r.Tenant + "/" + r.Name
		if admitted[tag] {
			continue
		}
		switch code := d.postReq(t, r); {
		case code == http.StatusOK:
			admitted[tag] = true
		case want != 0 || code < 500:
			t.Fatalf("submit %s: status %d", tag, code)
		}
	}
}

// rerun resubmits one completed campaign, superseding its result. want
// is as for submit.
func rerun(t *testing.T, d *daemon, reqs []campaignReq, k uint64, want int) {
	t.Helper()
	r := reqs[k%uint64(len(reqs))]
	if code := d.postReq(t, r); code != http.StatusOK && (want != 0 || code < 500) {
		t.Fatalf("rerun %s/%s: status %d", r.Tenant, r.Name, code)
	}
}

// liveCampaigns counts the queued and running campaigns.
func liveCampaigns(d *daemon) int {
	n := 0
	for _, cs := range d.sch.Status() {
		if cs.State == beholder.CampaignQueued || cs.State == beholder.CampaignRunning {
			n++
		}
	}
	return n
}

// checkAdmitted requires a reopened daemon to know exactly the
// campaigns a /submit answered 200: each is retained or running again,
// and no refused one is.
func checkAdmitted(t *testing.T, d *daemon, reqs []campaignReq, admitted map[string]bool) {
	t.Helper()
	states := d.campaignStates(t)
	for _, r := range reqs {
		tag := r.Tenant + "/" + r.Name
		if _, known := states[tag]; known != admitted[tag] {
			t.Fatalf("reopened with %s known %v, admitted %v (%v)", tag, known, admitted[tag], states)
		}
	}
}

// draw is the harness's keyed hash of (seed, i).
func draw(seed, i uint64) uint64 {
	x := seed*0x9e3779b97f4a7c15 ^ i
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}
