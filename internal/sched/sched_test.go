package sched

import (
	"context"
	"errors"
	"math/rand"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"beholder/internal/core"
	"beholder/internal/faultsim"
	"beholder/internal/netsim"
	"beholder/internal/probe"
	"beholder/internal/telemetry"
	"beholder/internal/testutil"
)

// schedUniverse builds one campaign-grade universe (no scarce-regime
// token buckets, same rationale as the core campaign tests) with an
// optional fault plane installed before any vantage exists.
func schedUniverse(seed int64, fc *faultsim.Config) *netsim.Universe {
	cfg := netsim.TestConfig(seed)
	cfg.AggressivePercent = 0
	u := netsim.NewUniverse(cfg)
	u.SetFaults(fc)
	return u
}

// schedTargets samples n reachable LAN gateways; sampling is pure, so
// the throwaway universe never interferes with the probing one.
func schedTargets(seed int64, n int) []netip.Addr {
	u := schedUniverse(seed, nil)
	rng := rand.New(rand.NewSource(seed))
	kinds := []netsim.ASKind{netsim.KindHosting, netsim.KindEyeballISP, netsim.KindEnterprise}
	var out []netip.Addr
	for len(out) < n {
		as := u.RandomAS(rng, kinds[len(out)%len(kinds)])
		lan, ok := u.RandomLAN(rng, as)
		if !ok {
			continue
		}
		out = append(out, u.GatewayAddr(lan, as))
	}
	return out
}

// testEnv is one supervisor's execution environment: a universe, its
// vantage, and the opener implementing the epoch-pinning discipline the
// scheduler relies on. All vantage mutation (shard-group resets,
// cloning) is serialized under one mutex because concurrent campaigns'
// factories interleave — initial attempts, recovery shards, and
// failover resumes all clone from here.
type testEnv struct {
	mu sync.Mutex
	u  *netsim.Universe
	v  *netsim.Vantage
}

func newTestEnv(seed int64, fc *faultsim.Config) *testEnv {
	u := schedUniverse(seed, fc)
	v := u.NewVantage(netsim.VantageSpec{Name: "US-EDU-1", Kind: netsim.KindUniversity, ChainLen: 4})
	return &testEnv{u: u, v: v}
}

// opener builds one attempt's factory: a private campaign-tagged parent
// clone pinned at virtual zero, so the campaign's epoch is 0 and shard
// clones open exactly where a bare run's would — fresh or resumed.
func (e *testEnv) opener(spec *CampaignSpec) (core.ConnFactory, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.v.BeginShardGroup()
	p := e.v.Clone(0)
	p.SetCampaign(spec.Tag())
	p.BeginShardGroup()
	return func(_ int, start time.Duration) probe.Conn {
		e.mu.Lock()
		defer e.mu.Unlock()
		return p.Clone(start)
	}, nil
}

// coreConfigOf mirrors the supervisor's spec→campaign mapping for bare
// baseline runs (no telemetry, no stream observers — neither may affect
// result bytes).
func coreConfigOf(spec CampaignSpec) core.CampaignConfig {
	return core.CampaignConfig{
		Config:      spec.Config,
		Shards:      spec.Shards,
		RecordPaths: true,
		InterruptAt: spec.Deadline,
	}
}

// soloRun executes one campaign bare — no supervisor — on a fresh
// identically-seeded, identically-faulted universe through the same
// opener discipline. Supervised runs must match it byte for byte.
func soloRun(t testing.TB, seed int64, fc *faultsim.Config, spec CampaignSpec) (*probe.Store, core.CampaignStats, error) {
	t.Helper()
	env := newTestEnv(seed, fc)
	factory, err := env.opener(&spec)
	if err != nil {
		t.Fatal(err)
	}
	return core.NewCampaign(coreConfigOf(spec), factory).Run()
}

// testSpec is the shared campaign shape: big enough to shard and
// interrupt mid-flight, small enough to keep the suite fast.
func testSpec(tenant, name string, targets []netip.Addr) CampaignSpec {
	return CampaignSpec{
		Tenant: tenant, Name: name, Vantage: "US-EDU-1",
		Config: core.Config{Targets: targets, PPS: 500, MaxTTL: 12, Key: 11, Fill: true},
	}
}

// counterVal reads a counter that must exist in the snapshot.
func counterVal(t *testing.T, snap telemetry.Snapshot, name string) int64 {
	t.Helper()
	v, ok := snap.Counter(name)
	if !ok {
		t.Fatalf("counter %s missing", name)
	}
	return v
}

func drainAll(t *testing.T, s *Supervisor) []Drained {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out, err := s.Drain(ctx)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	return out
}

// TestDispatchOrder pins the deterministic dispatch rule as a pure
// function of queue contents: priority, then fair share by running
// count, then submission order — independent of queue layout.
func TestDispatchOrder(t *testing.T) {
	s := &Supervisor{tenants: map[string]*tenantState{
		"hi":    {cfg: Tenant{Name: "hi", Priority: 2}},
		"a":     {cfg: Tenant{Name: "a", Priority: 1}},
		"busy":  {cfg: Tenant{Name: "busy", Priority: 1}, running: 2},
		"quiet": {cfg: Tenant{Name: "quiet", Priority: 1}},
	}}
	mk := func(seq uint64, tenant string) *job {
		return &job{seq: seq, spec: CampaignSpec{Tenant: tenant, Name: "c"}}
	}
	// Priority beats everything, whatever the queue position.
	s.queue = []*job{mk(0, "a"), mk(1, "busy"), mk(2, "hi")}
	if got := s.queue[s.nextLocked()].spec.Tenant; got != "hi" {
		t.Fatalf("priority pick = %s", got)
	}
	// Equal priority: the tenant with fewer running campaigns wins.
	s.queue = []*job{mk(0, "busy"), mk(1, "quiet")}
	if got := s.queue[s.nextLocked()].spec.Tenant; got != "quiet" {
		t.Fatalf("fair-share pick = %s", got)
	}
	// Full tie: submission order.
	s.queue = []*job{mk(7, "a"), mk(3, "quiet"), mk(5, "a")}
	if got := s.queue[s.nextLocked()].seq; got != 3 {
		t.Fatalf("seq pick = %d", got)
	}
}

// TestBreakerSet pins the circuit breaker's state machine: threshold
// trip, cooldown, single half-open trial, re-trip, and recovery.
func TestBreakerSet(t *testing.T) {
	b := newBreakerSet(2, 50*time.Millisecond)
	if !b.admit("V") || b.state("V") != BreakerClosed {
		t.Fatal("fresh vantage not closed")
	}
	if b.failure("V") {
		t.Fatal("first failure tripped early")
	}
	if !b.failure("V") {
		t.Fatal("threshold failure did not trip")
	}
	if b.admit("V") || b.state("V") != BreakerOpen {
		t.Fatal("open breaker admitted")
	}
	time.Sleep(60 * time.Millisecond)
	if b.state("V") != BreakerHalfOpen {
		t.Fatal("cooldown did not half-open")
	}
	if !b.admit("V") {
		t.Fatal("half-open refused the trial")
	}
	if b.admit("V") {
		t.Fatal("second concurrent trial admitted")
	}
	if !b.failure("V") {
		t.Fatal("failed trial did not re-trip")
	}
	if b.admit("V") {
		t.Fatal("re-opened breaker admitted")
	}
	time.Sleep(60 * time.Millisecond)
	if !b.admit("V") {
		t.Fatal("second trial refused")
	}
	b.success("V")
	if b.state("V") != BreakerClosed || !b.admit("V") {
		t.Fatal("successful trial did not close the breaker")
	}
}

// TestAdmissionControl walks every typed rejection, then drains with
// one campaign wedged pre-run and two queued: the queued pair comes
// back as bare specs, the wedged one as a checkpoint artifact.
func TestAdmissionControl(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	const seed = 4401
	env := newTestEnv(seed, nil)
	targets := schedTargets(seed, 16)
	gate := make(chan struct{})
	op := func(spec *CampaignSpec) (core.ConnFactory, error) {
		<-gate
		return env.opener(spec)
	}
	reg := telemetry.NewRegistry()
	s, err := New(Config{
		Opener: op, Workers: 1, QueueLimit: 2, Telemetry: reg,
		Tenants: []Tenant{{Name: "alpha", RateBudget: 1500}, {Name: "beta"}},
	})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := s.Submit(testSpec("nobody", "c", targets)); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("unknown tenant: %v", err)
	}
	sp := testSpec("alpha", "run", targets)
	sp.PPS = 1000
	h1, err := s.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the worker to dequeue it (it then blocks in the gated
	// opener) so the queue-limit checks below see an empty queue.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		st := s.Status()
		if len(st) > 0 && st[0].State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first campaign never dispatched")
		}
	}
	if _, err := s.Submit(sp); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate: %v", err)
	}
	big := testSpec("alpha", "big", targets)
	big.PPS = 600 // 1000 reserved of 1500
	if _, err := s.Submit(big); !errors.Is(err, ErrRateBudget) {
		t.Fatalf("rate budget: %v", err)
	}
	if _, err := s.Submit(testSpec("beta", "q1", targets)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(testSpec("beta", "q2", targets)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(testSpec("beta", "q3", targets)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("queue full: %v", err)
	}
	if _, err := s.Submit(CampaignSpec{Tenant: "beta", Name: "bad", Resume: []byte("junk")}); !errors.Is(err, core.ErrCheckpoint) {
		t.Fatalf("bad artifact: %v", err)
	}

	// Drain with the running campaign still blocked in its opener: the
	// two queued campaigns flush immediately as bare specs; the running
	// one is interrupted the instant its campaign exists and drains to
	// a checkpoint artifact.
	type drainOut struct {
		ds  []Drained
		err error
	}
	done := make(chan drainOut, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		ds, err := s.Drain(ctx)
		done <- drainOut{ds, err}
	}()
	for !s.isDraining() {
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Submit(testSpec("beta", "late", targets)); !errors.Is(err, ErrDraining) {
		t.Fatalf("draining: %v", err)
	}
	close(gate)
	out := <-done
	if out.err != nil {
		t.Fatalf("drain: %v", out.err)
	}
	var specs, artifacts int
	for _, d := range out.ds {
		if d.Artifact == nil {
			specs++
		} else {
			artifacts++
			if _, err := core.InspectCheckpoint(d.Artifact); err != nil {
				t.Fatalf("drained artifact: %v", err)
			}
		}
	}
	if specs != 2 || artifacts != 1 {
		t.Fatalf("drained %d specs + %d artifacts, want 2 + 1", specs, artifacts)
	}
	res := h1.Result()
	if res == nil || res.State != StateDrained {
		t.Fatalf("running campaign result = %+v", res)
	}
	if _, err := s.Drain(context.Background()); !errors.Is(err, ErrDraining) {
		t.Fatalf("second drain: %v", err)
	}
	snap := reg.Snapshot()
	if got := counterVal(t, snap, "sched_submitted_total"); got != 3 {
		t.Fatalf("submitted = %d", got)
	}
	if got := counterVal(t, snap, "sched_rejected_total"); got != 6 {
		t.Fatalf("rejected = %d", got)
	}
	if got := counterVal(t, snap, "sched_drained_total"); got != 3 {
		t.Fatalf("drained = %d", got)
	}
}

// TestResumeChargedArtifactRate: a resubmitted artifact names only
// tenant, campaign and artifact, as SubmitOptions.Resume invites, so
// admission must charge the rate the artifact pins — a 10 000-pps
// campaign does not fit a 5 000-pps budget because the spec's PPS is
// unset. Completion releases what admission charged.
func TestResumeChargedArtifactRate(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	const seed = 4403
	spec := testSpec("t", "c", schedTargets(seed, 16))
	spec.PPS = 10_000
	env := newTestEnv(seed, nil)
	factory, err := env.opener(&spec)
	if err != nil {
		t.Fatal(err)
	}
	ccfg := coreConfigOf(spec)
	ccfg.InterruptAt = 5 * time.Millisecond
	camp := core.NewCampaign(ccfg, factory)
	if _, _, err := camp.Run(); !errors.Is(err, core.ErrInterrupted) {
		t.Fatalf("interrupted run: %v", err)
	}
	art, err := camp.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	s, err := New(Config{Opener: env.opener, Tenants: []Tenant{
		{Name: "small", RateBudget: 5_000}, {Name: "large", RateBudget: 10_000}}})
	if err != nil {
		t.Fatal(err)
	}
	defer drainAll(t, s)
	resume := func(tenant string) (*Handle, error) {
		return s.Submit(CampaignSpec{Tenant: tenant, Name: "c", Vantage: "US-EDU-1", Resume: art})
	}
	if _, err := resume("small"); !errors.Is(err, ErrRateBudget) {
		t.Fatalf("10 000-pps artifact under a 5 000-pps budget: got %v, want ErrRateBudget", err)
	}
	for i := 0; i < 2; i++ {
		h, err := resume("large")
		if err != nil {
			t.Fatalf("submission %d under a 10 000-pps budget: %v", i, err)
		}
		<-h.Done()
		if res := h.Result(); res.State != StateCompleted {
			t.Fatalf("submission %d: %+v", i, res)
		}
	}
}

// TestDeadlineIncomplete: a campaign overrunning its virtual deadline
// degrades to Incomplete with partial results, without tripping the
// breaker — a deadline is tenant policy, not vantage fault.
func TestDeadlineIncomplete(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	const seed = 4402
	env := newTestEnv(seed, nil)
	s, err := New(Config{Opener: env.opener, Tenants: []Tenant{{Name: "t"}}})
	if err != nil {
		t.Fatal(err)
	}
	sp := testSpec("t", "slow", schedTargets(seed, 32))
	sp.Shards, sp.Batch = 2, 16
	sp.Deadline = 120 * time.Millisecond
	h, err := s.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.State != StateIncomplete || res.Reason != "deadline" || res.Err != nil {
		t.Fatalf("deadline result = %+v", res)
	}
	if res.Store == nil || res.Stats.ProbesSent == 0 {
		t.Fatal("no partial results retained")
	}
	if st := s.BreakerState("US-EDU-1"); st != BreakerClosed {
		t.Fatalf("breaker = %v after deadline", st)
	}
	drainAll(t, s)
}

// wedgeConn wall-blocks one send mid-campaign — a hung socket, not a
// simulated fault, so virtual time and the result bytes are untouched.
// Both serial and batched paths are overridden; everything else
// (including checkpoint pending-reply export) promotes from the
// embedded vantage.
type wedgeConn struct {
	*netsim.Vantage
	sends  int
	wedged *atomic.Bool
	block  time.Duration
}

func (w *wedgeConn) maybeWedge() {
	w.sends++
	if w.sends == 5 && w.wedged.CompareAndSwap(false, true) {
		time.Sleep(w.block)
	}
}

func (w *wedgeConn) Send(pkt []byte) error {
	w.maybeWedge()
	return w.Vantage.Send(pkt)
}

func (w *wedgeConn) SendBatch(pkts [][]byte, gap time.Duration) (int, bool, error) {
	w.maybeWedge()
	return w.Vantage.SendBatch(pkts, gap)
}

// TestWatchdogFailover: a campaign whose connection wall-hangs stops
// heartbeating; the watchdog interrupts it, the supervisor checkpoints
// and resumes on fresh connections, and the final store is
// byte-identical to an unsupervised run — failover is invisible in the
// results.
func TestWatchdogFailover(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	const seed = 4403
	env := newTestEnv(seed, nil)
	targets := schedTargets(seed, 24)
	var attempts atomic.Int32
	var wedged atomic.Bool
	op := func(spec *CampaignSpec) (core.ConnFactory, error) {
		inner, err := env.opener(spec)
		if err != nil {
			return nil, err
		}
		if attempts.Add(1) > 1 {
			return inner, nil // post-failover attempts get clean conns
		}
		return func(shard int, start time.Duration) probe.Conn {
			v := inner(shard, start).(*netsim.Vantage)
			return &wedgeConn{Vantage: v, wedged: &wedged, block: 400 * time.Millisecond}
		}, nil
	}
	reg := telemetry.NewRegistry()
	s, err := New(Config{
		Opener: op, Tenants: []Tenant{{Name: "t"}}, Telemetry: reg,
		WatchdogPoll: 5 * time.Millisecond, StallBudget: 100 * time.Millisecond,
		BackoffBase: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	sp := testSpec("t", "wedge", targets) // 1 shard: the hung conn is the only heartbeat source
	h, err := s.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.State != StateCompleted || res.Retries != 1 {
		t.Fatalf("failover result: state %v retries %d err %v reason %q", res.State, res.Retries, res.Err, res.Reason)
	}
	if got := attempts.Load(); got != 2 {
		t.Fatalf("opener calls = %d", got)
	}
	if !wedged.Load() {
		t.Fatal("wedge never fired")
	}
	bare, bareStats, bareErr := soloRun(t, seed, nil, sp)
	if bareErr != nil {
		t.Fatal(bareErr)
	}
	if !res.Store.Equal(bare) {
		t.Fatal("failover store differs from bare run")
	}
	if res.Stats.ProbesSent != bareStats.ProbesSent || res.Stats.Replies != bareStats.Replies {
		t.Fatalf("failover stats %+v vs bare %+v", res.Stats.Stats, bareStats.Stats)
	}
	snap := reg.Snapshot()
	if got := counterVal(t, snap, "sched_watchdog_interrupts_total"); got != 1 {
		t.Fatalf("watchdog interrupts = %d", got)
	}
	if got := counterVal(t, snap, "sched_retries_total"); got != 1 {
		t.Fatalf("retries = %d", got)
	}
	drainAll(t, s)
}

// TestBreakerLifecycle: consecutive campaign failures on one vantage
// trip its breaker open (rejecting submissions), the cooldown admits a
// half-open trial, and a successful trial closes it again.
func TestBreakerLifecycle(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	const seed = 4404
	env := newTestEnv(seed, nil)
	targets := schedTargets(seed, 12)
	var failing atomic.Bool
	failing.Store(true)
	op := func(spec *CampaignSpec) (core.ConnFactory, error) {
		if failing.Load() {
			return nil, errors.New("vantage offline")
		}
		return env.opener(spec)
	}
	reg := telemetry.NewRegistry()
	s, err := New(Config{
		Opener: op, Workers: 1, Tenants: []Tenant{{Name: "t"}}, Telemetry: reg,
		BreakerThreshold: 2, BreakerCooldown: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func(name string) *Result {
		h, err := s.Submit(testSpec("t", name, targets))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := h.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if res := run("f1"); res.State != StateIncomplete || res.Reason != "open-failed" {
		t.Fatalf("f1 = %+v", res)
	}
	if st := s.BreakerState("US-EDU-1"); st != BreakerClosed {
		t.Fatalf("breaker after one failure = %v", st)
	}
	if res := run("f2"); res.State != StateIncomplete {
		t.Fatalf("f2 = %+v", res)
	}
	if st := s.BreakerState("US-EDU-1"); st != BreakerOpen {
		t.Fatalf("breaker after threshold = %v", st)
	}
	if _, err := s.Submit(testSpec("t", "f3", targets)); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open-breaker submit: %v", err)
	}
	if got := counterVal(t, reg.Snapshot(), "sched_breaker_open_total"); got != 1 {
		t.Fatalf("breaker-open count = %d", got)
	}

	time.Sleep(160 * time.Millisecond)
	if st := s.BreakerState("US-EDU-1"); st != BreakerHalfOpen {
		t.Fatalf("breaker after cooldown = %v", st)
	}
	failing.Store(false)
	if res := run("trial"); res.State != StateCompleted {
		t.Fatalf("trial = %+v", res)
	}
	if st := s.BreakerState("US-EDU-1"); st != BreakerClosed {
		t.Fatalf("breaker after trial = %v", st)
	}
	drainAll(t, s)
}

// TestAdmitReserves pins CampaignSpec.Admit: an error admits nothing;
// while Admit runs, outside the supervisor's lock, the campaign's tag,
// rate and queue slot stay reserved, so a duplicate, an over-budget
// submission and one past the queue limit are refused; and a Drain that
// begins meanwhile waits for it and hands the campaign back queued.
func TestAdmitReserves(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	const seed = 4402
	env := newTestEnv(seed, nil)
	targets := schedTargets(seed, 8)
	s, err := New(Config{Opener: env.opener, Workers: 1, QueueLimit: 1,
		Tenants: []Tenant{{Name: "acme", RateBudget: 900}, {Name: "beta"}}})
	if err != nil {
		t.Fatal(err)
	}
	refused := testSpec("acme", "refused", targets)
	refused.Admit = func() error { return errors.New("disk full") }
	if _, err := s.Submit(refused); err == nil || err.Error() != "disk full" {
		t.Fatalf("failed Admit: %v", err)
	}
	if st := s.Status(); len(st) != 0 {
		t.Fatalf("failed Admit admitted %+v", st)
	}

	entered, release := make(chan struct{}), make(chan struct{})
	held := testSpec("acme", "held", targets)
	held.Admit = func() error { close(entered); <-release; return nil }
	admitted := make(chan error, 1)
	go func() {
		_, err := s.Submit(held)
		admitted <- err
	}()
	<-entered
	if _, err := s.Submit(testSpec("acme", "held", targets)); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate during Admit: %v", err)
	}
	if _, err := s.Submit(testSpec("acme", "other", targets)); !errors.Is(err, ErrRateBudget) {
		t.Fatalf("over budget during Admit: %v", err)
	}
	if _, err := s.Submit(testSpec("beta", "other", targets)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("past the queue limit during Admit: %v", err)
	}
	drained := make(chan []Drained, 1)
	go func() {
		out, _ := s.Drain(context.Background())
		drained <- out
	}()
	for {
		// Drain has begun once a new submission is refused as draining.
		if _, err := s.Submit(testSpec("acme", "late", targets)); errors.Is(err, ErrDraining) {
			break
		}
		runtime.Gosched()
	}
	close(release)
	if err := <-admitted; err != nil {
		t.Fatalf("held Submit: %v", err)
	}
	out := <-drained
	if len(out) != 1 || out[0].Spec.Name != "held" || out[0].Artifact != nil {
		t.Fatalf("drain handed back %+v, want the held campaign queued", out)
	}
}
