package sched

import (
	"bytes"
	"context"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"beholder/internal/core"
	"beholder/internal/faultsim"
	"beholder/internal/netsim"
	"beholder/internal/probe"
	"beholder/internal/telemetry"
	"beholder/internal/testutil"
)

// slowOpener is opener with every send taking a millisecond of clk.
func (e *testEnv) slowOpener(clk *fakeClock) Opener {
	return func(spec *CampaignSpec) (core.ConnFactory, error) {
		inner, err := e.opener(spec)
		if err != nil {
			return nil, err
		}
		return func(shard int, start time.Duration) probe.Conn {
			return &slowConn{Vantage: inner(shard, start).(*netsim.Vantage), clk: clk, delay: time.Millisecond}
		}, nil
	}
}

// slowConn makes every send advance the supervision clock by delay, so
// a campaign spans many checkpoint intervals. Virtual time — and
// therefore the result bytes — are untouched; resume equivalence holds
// at any cut point, so the tests need no control over where a cut
// lands.
type slowConn struct {
	*netsim.Vantage
	clk   *fakeClock
	delay time.Duration
}

func (c *slowConn) Send(pkt []byte) error {
	c.clk.advance(c.delay)
	return c.Vantage.Send(pkt)
}

func (c *slowConn) SendBatch(pkts [][]byte, gap time.Duration) (int, bool, error) {
	c.clk.advance(c.delay)
	return c.Vantage.SendBatch(pkts, gap)
}

// periodicSpec is the slowed 2-shard campaign the periodic-checkpoint
// tests run.
func periodicSpec(seed int64, name string) CampaignSpec {
	spec := testSpec("acme", name, schedTargets(seed, 48))
	spec.Shards = 2
	spec.Batch = 1
	return spec
}

// periodic is one periodicRun: the campaign's result, spec and tenant
// stream, a copy of every artifact the sink saw, and the universe it
// probed.
type periodic struct {
	res       *Result
	spec      CampaignSpec
	stream    string
	artifacts [][]byte
	u         *netsim.Universe
}

// periodicRun drives periodicSpec through a single-worker supervisor
// snapshotting every `every` (0: never) on a universe faulted by fc
// (nil: none). The watchdog never fires: only the checkpoint timer may
// interrupt.
func periodicRun(t *testing.T, seed int64, every time.Duration, reg *telemetry.Registry, fc *faultsim.Config) periodic {
	t.Helper()
	clk := newFakeClock()
	var mu sync.Mutex
	var artifacts [][]byte
	env := newTestEnv(seed, fc)
	s, err := newSupervisor(env.slowOpener(clk), Options{
		Tenants:         []Tenant{{Name: "acme"}},
		Workers:         1,
		StallBudget:     30 * time.Second,
		CheckpointEvery: every,
		CheckpointSink: func(_, _ string, art []byte) error {
			mu.Lock()
			defer mu.Unlock()
			// The supervisor reuses art's memory for a later snapshot:
			// keep a copy, as the sink contract asks.
			artifacts = append(artifacts, append([]byte(nil), art...))
			return nil
		},
		Telemetry: reg,
	}, clk)
	if err != nil {
		t.Fatal(err)
	}

	var stream bytes.Buffer
	spec := periodicSpec(seed, "periodic")
	spec.Stream = &stream
	h, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := h.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.State != StateCompleted {
		t.Fatalf("state = %v (%s), want completed", res.State, res.Reason)
	}
	if res.Retries != 0 {
		t.Fatalf("periodic checkpoints consumed %d retries", res.Retries)
	}
	drainAll(t, s)
	mu.Lock()
	defer mu.Unlock()
	return periodic{res, spec, stream.String(), artifacts, env.u}
}

// TestPeriodicCheckpoint pins the periodic-checkpoint cycle: a
// slowed campaign under CheckpointEvery is interrupted,
// snapshotted to the sink, and resumed several times, completes with
// zero retries consumed, and its store is byte-identical to the solo
// uninterrupted run. Every sink artifact — each encoded into the memory
// of the one before last — must be a structurally valid checkpoint, and
// the snapshots must surface in telemetry and the tenant stream.
func TestPeriodicCheckpoint(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	const seed = 1310
	reg := telemetry.NewRegistry()
	run := periodicRun(t, seed, 25*time.Millisecond, reg, nil)
	res, artifacts := run.res, run.artifacts
	n := len(artifacts)
	if n < 3 {
		t.Fatalf("%d periodic checkpoints reached the sink, want enough to reuse a buffer", n)
	}
	for i, art := range artifacts {
		if _, err := core.InspectCheckpoint(art); err != nil {
			t.Fatalf("sink artifact %d invalid: %v", i, err)
		}
	}
	snap := reg.Snapshot()
	if got := counterVal(t, snap, "sched_checkpoints_total"); got != int64(n) {
		t.Fatalf("sched_checkpoints_total = %d, sink saw %d", got, n)
	}
	for _, name := range []string{"sched_checkpoint_encode_usec", "sched_checkpoint_sink_usec"} {
		if h, ok := snap.Histogram(name); !ok || h.Count != int64(n) {
			t.Fatalf("%s: %d observations (present %v), want %d", name, h.Count, ok, n)
		}
	}
	if g, ok := snap.Gauge("sched_checkpoint_bytes"); !ok || g != int64(len(artifacts[n-1])) {
		t.Fatalf("sched_checkpoint_bytes = %d, last artifact has %d bytes", g, len(artifacts[n-1]))
	}
	// Each continuation publishes into the registry its predecessor
	// published to: the campaign is counted once, not once per attempt.
	assertCountedOnce(t, snap, res.Stats.Stats)
	if !strings.Contains(run.stream, `"checkpoint"`) {
		t.Fatal("no checkpoint event on the tenant stream")
	}

	solo, _, err := soloRun(t, seed, nil, run.spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Store.AppendBinary(nil), solo.AppendBinary(nil)) {
		t.Fatalf("store after %d periodic checkpoint cycles differs from solo run", n)
	}
}

// TestPeriodicCheckpointSurvivesCrash: a connection fault is an
// interrupt, so a periodically checkpointed campaign whose shard 0 host
// dies mid-window keeps checkpointing and completes. Its store equals
// the same campaign without snapshots and the fault-free run, and the
// crash still shows in Quarantined. Snapshots continue on the campaign's
// own connection factory, so the restart lands on a fresh clone the
// crash rule does not arm: the universe denies one send with snapshots,
// as without. A drain taken after the crash hands over an artifact whose
// resubmission completes byte-equal to the bare run.
func TestPeriodicCheckpointSurvivesCrash(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	const seed = 7
	fc := &faultsim.Config{Seed: 0xc4a05, Rules: []faultsim.Rule{
		{Vantage: "US-EDU-1", Shard: 0, Kind: faultsim.KindCrash, At: 300 * time.Millisecond},
	}}
	run := periodicRun(t, seed, 25*time.Millisecond, nil, fc)
	res := run.res
	if len(run.artifacts) < 3 {
		t.Fatalf("%d periodic checkpoints reached the sink", len(run.artifacts))
	}
	if !slices.Equal(res.Stats.Quarantined, []int{0}) || len(res.Stats.Incomplete) != 0 {
		t.Fatalf("quarantined %v, incomplete %v; want [0] and none", res.Stats.Quarantined, res.Stats.Incomplete)
	}
	plain := periodicRun(t, seed, 0, nil, fc)
	if !bytes.Equal(res.Store.AppendBinary(nil), plain.res.Store.AppendBinary(nil)) {
		t.Fatal("checkpointed crash run differs from the same run without snapshots")
	}
	with, without := run.u.StatsSnapshot().FaultCrashDenials, plain.u.StatsSnapshot().FaultCrashDenials
	if with != 1 || without != 1 {
		t.Fatalf("crash denials: %d with snapshots, %d without; want 1 each", with, without)
	}
	clean, _, err := soloRun(t, seed, nil, run.spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Store.AppendBinary(nil), clean.AppendBinary(nil)) {
		t.Fatal("checkpointed crash run differs from the fault-free run")
	}

	// Drain at the first snapshot taken after the crash fired.
	env := newTestEnv(seed, fc)
	crashed := make(chan struct{})
	var drainBegun <-chan struct{}
	clk := newFakeClock()
	s, err := newSupervisor(env.slowOpener(clk), Options{
		Tenants:         []Tenant{{Name: "acme"}},
		Workers:         1,
		StallBudget:     30 * time.Second,
		CheckpointEvery: 25 * time.Millisecond,
		CheckpointSink: func(string, string, []byte) error {
			if env.u.StatsSnapshot().FaultCrashDenials > 0 && crashed != nil {
				close(crashed)
				crashed = nil
				<-drainBegun
			}
			return nil
		},
	}, clk)
	if err != nil {
		t.Fatal(err)
	}
	drainBegun = s.drainCh
	wait := crashed
	h, err := s.Submit(periodicSpec(seed, "drained"))
	if err != nil {
		t.Fatal(err)
	}
	<-wait
	out := drainAll(t, s)
	if dr := h.Result(); dr.State != StateDrained || len(out) != 1 || out[0].Artifact == nil {
		t.Fatalf("drain after the crash: state %v (%s), %d drained", dr.State, dr.Reason, len(out))
	}
	s2, err := New(newTestEnv(seed, fc).opener, Options{Tenants: []Tenant{{Name: "acme"}}, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	resumed := out[0].Spec
	resumed.Resume = out[0].Artifact
	h2, err := s2.Submit(resumed)
	if err != nil {
		t.Fatal(err)
	}
	got, err := h2.Wait(t.Context())
	if err != nil || got.State != StateCompleted {
		t.Fatalf("resubmitted drain artifact: state %v (%s), err %v", got.State, got.Reason, err)
	}
	drainAll(t, s2)
	bare, _, err := soloRun(t, seed, fc, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Store.AppendBinary(nil), bare.AppendBinary(nil)) {
		t.Fatal("the campaign resumed from its post-crash drain differs from its bare run")
	}
}

// TestPeriodicCheckpointDisabled pins the zero-value behavior: without
// CheckpointEvery the sink is never called and no checkpoint metric
// moves.
func TestPeriodicCheckpointDisabled(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	const seed = 1311
	env := newTestEnv(seed, nil)
	reg := telemetry.NewRegistry()
	called := false
	s, err := New(env.opener, Options{
		Tenants: []Tenant{{Name: "acme"}},
		Workers: 1,
		CheckpointSink: func(string, string, []byte) error {
			called = true
			return nil
		},
		Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.Submit(testSpec("acme", "plain", schedTargets(seed, 16)))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := h.Wait(ctx)
	if err != nil || res.State != StateCompleted {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	drainAll(t, s)
	if called {
		t.Fatal("sink called with CheckpointEvery unset")
	}
	if got := counterVal(t, reg.Snapshot(), "sched_checkpoints_total"); got != 0 {
		t.Fatalf("sched_checkpoints_total = %d, want 0", got)
	}
}

// TestCheckpointMemoryOutlivesCampaign pins who owns a worker's artifact
// memory. On one worker, a second periodically checkpointed campaign
// hands the sink artifacts in memory the first one's snapshots grew; a
// drained campaign's Result.Artifact escapes that memory for good — it
// stays unchanged while it is resumed and further campaigns encode
// snapshots — and the resumed run still equals its solo run.
func TestCheckpointMemoryOutlivesCampaign(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	const seed = 1312
	env := newTestEnv(seed, nil)
	var mu sync.Mutex
	bases := map[string][]*byte{} // per campaign, where each artifact began
	var held [][]byte             // keeps those addresses from being reused
	firstSnap := make(chan struct{}, 1)
	var drainBegun <-chan struct{} // the first supervisor's drain signal
	clk := newFakeClock()
	newSup := func() *Supervisor {
		s, err := newSupervisor(env.slowOpener(clk), Options{
			Tenants:         []Tenant{{Name: "acme"}},
			Workers:         1,
			StallBudget:     30 * time.Second,
			CheckpointEvery: 25 * time.Millisecond,
			CheckpointSink: func(_, name string, art []byte) error {
				mu.Lock()
				bases[name] = append(bases[name], unsafe.SliceData(art))
				held = append(held, art)
				mu.Unlock()
				if name == "drained" {
					// Hold the first supervisor's campaign at its first
					// snapshot until the drain begins, so the drain lands
					// mid-campaign.
					select {
					case firstSnap <- struct{}{}:
					default:
					}
					<-drainBegun
				}
				return nil
			},
		}, clk)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	spec := func(name string) CampaignSpec {
		sp := testSpec("acme", name, schedTargets(seed, 48))
		sp.Shards = 2
		sp.Batch = 1
		return sp
	}
	run := func(s *Supervisor, sp CampaignSpec) *Result {
		t.Helper()
		h, err := s.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		res, err := h.Wait(t.Context())
		if err != nil {
			t.Fatal(err)
		}
		if res.State != StateCompleted {
			t.Fatalf("%s: state %v (%s)", sp.Name, res.State, res.Reason)
		}
		return res
	}

	s := newSup()
	drainBegun = s.drainCh
	run(s, spec("first"))
	run(s, spec("second"))
	mu.Lock()
	if len(bases["first"]) < 3 || len(bases["second"]) == 0 {
		t.Fatalf("snapshots: first %d, second %d", len(bases["first"]), len(bases["second"]))
	}
	reused := false
	for _, b := range bases["second"] {
		reused = reused || slices.Contains(bases["first"], b)
	}
	mu.Unlock()
	if !reused {
		t.Fatal("the second campaign encoded no snapshot into the first one's memory")
	}

	drained := spec("drained")
	h, err := s.Submit(drained)
	if err != nil {
		t.Fatal(err)
	}
	<-firstSnap
	out := drainAll(t, s)
	res := h.Result()
	if res.State != StateDrained || len(out) != 1 || out[0].Artifact == nil {
		t.Fatalf("drain: state %v (%s), %d drained", res.State, res.Reason, len(out))
	}
	art := res.Artifact
	want := bytes.Clone(art)

	s = newSup()
	resumed := out[0].Spec
	resumed.Resume = art
	got := run(s, resumed)
	run(s, spec("after"))
	drainAll(t, s)
	if !bytes.Equal(art, want) {
		t.Fatal("a drained artifact changed while later campaigns encoded")
	}
	solo, _, err := soloRun(t, seed, nil, drained)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Store.AppendBinary(nil), solo.AppendBinary(nil)) {
		t.Fatal("the campaign resumed from its drained artifact differs from its solo run")
	}
}
