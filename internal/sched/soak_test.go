package sched

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"beholder/internal/core"
	"beholder/internal/faultsim"
	"beholder/internal/graph"
	"beholder/internal/netsim"
	"beholder/internal/probe"
	"beholder/internal/telemetry"
	"beholder/internal/testutil"
	"beholder/internal/wire"
)

// TestSupervisedNeutrality is the core supervision invariant in
// miniature: two tenants' campaigns run concurrently over one shared
// universe, and each result is byte-identical to the same campaign run
// bare and alone on a fresh universe — the supervisor (and the progress
// stream it attaches) leaves no trace in the data.
func TestSupervisedNeutrality(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	const seed = 5001
	env := newTestEnv(seed, nil)
	s, err := New(env.opener, Options{Workers: 2,
		Tenants: []Tenant{{Name: "ta"}, {Name: "tb"}}})
	if err != nil {
		t.Fatal(err)
	}
	specs := []CampaignSpec{
		testSpec("ta", "c", schedTargets(seed, 48)),
		testSpec("tb", "c", schedTargets(seed+1, 32)),
	}
	specs[0].Shards, specs[0].Batch = 2, 64
	specs[1].Shards, specs[1].Batch = 3, 16
	var streams [2]bytes.Buffer
	var handles [2]*Handle
	for i := range specs {
		specs[i].Stream = &streams[i]
		h, err := s.Submit(specs[i])
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	for i, h := range handles {
		res, err := h.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.State != StateCompleted || res.Err != nil {
			t.Fatalf("campaign %d: %+v", i, res)
		}
		bare, bareStats, bareErr := soloRun(t, seed, nil, specs[i])
		if bareErr != nil {
			t.Fatal(bareErr)
		}
		if !res.Store.Equal(bare) {
			t.Fatalf("campaign %d: supervised store differs from bare run", i)
		}
		if res.Stats.ProbesSent != bareStats.ProbesSent || res.Stats.Replies != bareStats.Replies {
			t.Fatalf("campaign %d: stats %+v vs bare %+v", i, res.Stats.Stats, bareStats.Stats)
		}
	}

	// The lifecycle events open with admission and close with completion
	// (TestStreamCarriesProgress pins the progress records between).
	for i := range streams {
		evs := eventsOf(t, streams[i].Bytes())
		if len(evs) != 3 || evs[0].Event != "submitted" || evs[1].Event != "started" {
			t.Fatalf("stream %d: events %+v", i, evs)
		}
		if last := evs[2]; last.Event != "completed" || last.Probes == 0 || last.Nodes == 0 {
			t.Fatalf("stream %d closes %+v", i, last)
		}
	}
	drainAll(t, s)
}

// soakCase is one tenant's campaign in the chaos soak, with the fault
// rules addressed to it alone.
type soakCase struct {
	name   string
	shards int
	batch  int
	rules  []faultsim.Rule
	crash  bool // lossless recovery: also byte-equal to a fault-free run
}

// TestChaosSoak is the acceptance harness: eight tenants' campaigns
// multiplexed concurrently over one shared universe while
// campaign-addressed fault rules crash shard hosts, blackhole windows,
// and damage traffic — each tenant's faults invisible to the others.
// Every campaign must terminate Completed, byte-identical to its solo
// run under identical faults (supervisor neutrality); the crash
// campaigns, whose recovery is lossless, must additionally match their
// solo fault-free runs. No goroutine may outlive the drained
// supervisor.
func TestChaosSoak(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	const seed = 9001
	cases := []soakCase{
		{name: "crash-early", shards: 2, batch: 64, crash: true,
			rules: []faultsim.Rule{{Vantage: "US-EDU-1", Shard: 0, Kind: faultsim.KindCrash, At: 300 * time.Millisecond}}},
		{name: "stall", shards: 2, batch: 16,
			rules: []faultsim.Rule{{Vantage: "US-EDU-1", Shard: faultsim.MatchAnyShard, Kind: faultsim.KindStall, At: 200 * time.Millisecond, Duration: 150 * time.Millisecond}}},
		{name: "transient", shards: 1, batch: 1,
			rules: []faultsim.Rule{{Vantage: "US-EDU-1", Shard: faultsim.MatchAnyShard, Kind: faultsim.KindTransientSend, Prob: 0.1}}},
		{name: "corrupt", shards: 3, batch: 32,
			rules: []faultsim.Rule{{Vantage: "US-EDU-1", Shard: faultsim.MatchAnyShard, Kind: faultsim.KindCorruptReply, Prob: 0.3}}},
		{name: "clean", shards: 4, batch: 64},
		{name: "crash-late", shards: 3, batch: 1, crash: true,
			rules: []faultsim.Rule{{Vantage: "US-EDU-1", Shard: 1, Kind: faultsim.KindCrash, At: 500 * time.Millisecond}}},
		{name: "truncate", shards: 2, batch: 64,
			rules: []faultsim.Rule{{Vantage: "US-EDU-1", Shard: faultsim.MatchAnyShard, Kind: faultsim.KindTruncateReply, Prob: 0.2}}},
		{name: "delay", shards: 1, batch: 64,
			rules: []faultsim.Rule{{Vantage: "US-EDU-1", Shard: faultsim.MatchAnyShard, Kind: faultsim.KindDelayBurst, At: 300 * time.Millisecond, Duration: 400 * time.Millisecond}}},
	}

	// One fault plane for the whole universe: every rule is addressed
	// to exactly one campaign tag, so tenants only feel their own
	// chaos. Each case is submitted under a vantage name of its own —
	// the breaker's key — so the crash cases' quarantine-degraded
	// completions cannot open a breaker over the others: vantage health
	// is not under test here. The test opener probes from the one
	// US-EDU-1 vantage whatever the name.
	var tenants []Tenant
	specs := make([]CampaignSpec, len(cases))
	fc := &faultsim.Config{Seed: 0x50a1}
	for i, c := range cases {
		tenant := fmt.Sprintf("t%d", i)
		tenants = append(tenants, Tenant{Name: tenant})
		sp := testSpec(tenant, c.name, schedTargets(seed+int64(i), 40+i))
		sp.Vantage = fmt.Sprintf("V%d", i)
		sp.Shards, sp.Batch = c.shards, c.batch
		specs[i] = sp
		for _, r := range c.rules {
			r.Campaign = sp.Tag()
			fc.Rules = append(fc.Rules, r)
		}
	}

	env := newTestEnv(seed, fc)
	reg := telemetry.NewRegistry()
	s, err := New(env.opener, Options{Workers: 4, Tenants: tenants, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	handles := make([]*Handle, len(specs))
	for i := range specs {
		h, err := s.Submit(specs[i])
		if err != nil {
			t.Fatalf("%s: %v", cases[i].name, err)
		}
		handles[i] = h
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	for i, h := range handles {
		res, err := h.Wait(ctx)
		if err != nil {
			t.Fatalf("%s did not terminate: %v", cases[i].name, err)
		}
		if res.State != StateCompleted || res.Err != nil {
			t.Fatalf("%s: state %v err %v reason %q", cases[i].name, res.State, res.Err, res.Reason)
		}
		if cases[i].crash && len(res.Stats.Quarantined) == 0 {
			t.Fatalf("%s: crash campaign quarantined nothing", cases[i].name)
		}

		// Supervisor neutrality: byte-identical to the same campaign run
		// bare under identical faults on a fresh universe.
		solo, soloStats, soloErr := soloRun(t, seed, fc, specs[i])
		if soloErr != nil {
			t.Fatalf("%s solo: %v", cases[i].name, soloErr)
		}
		if !res.Store.Equal(solo) {
			t.Fatalf("%s: supervised store differs from solo identically-faulted run", cases[i].name)
		}
		if res.Stats.ProbesSent != soloStats.ProbesSent || res.Stats.Replies != soloStats.Replies {
			t.Fatalf("%s: stats %+v vs solo %+v", cases[i].name, res.Stats.Stats, soloStats.Stats)
		}

		// Crash recovery is lossless: the quarantined shard's range is
		// re-probed at the original instants, so the store also matches
		// the solo fault-free run.
		if cases[i].crash {
			clean, _, cleanErr := soloRun(t, seed, nil, specs[i])
			if cleanErr != nil {
				t.Fatalf("%s fault-free: %v", cases[i].name, cleanErr)
			}
			if !res.Store.Equal(clean) {
				t.Fatalf("%s: crash-recovered store differs from fault-free run", cases[i].name)
			}
		}
	}

	snap := reg.Snapshot()
	if got := counterVal(t, snap, "sched_completed_total"); got != int64(len(cases)) {
		t.Fatalf("completed = %d", got)
	}
	if fired, _ := snap.Counter("sched_watchdog_interrupts_total"); fired != 0 {
		t.Fatalf("watchdog fired %d times in a virtual-time soak", fired)
	}
	drainAll(t, s)
}

// gate holds a campaign's sends once one of its connections has made
// `after` of them, until the supervisor begins draining: a drain timed
// by progress instead of by any clock, so it lands mid-campaign with
// every connection at most `after` sends in. Virtual time — and
// therefore the result bytes — are untouched.
type gate struct {
	after int
	open  <-chan struct{} // the supervisor's drain signal
	once  sync.Once
	held  chan struct{} // closed once a send is held
}

func newGate(s *Supervisor, after int) *gate {
	return &gate{after: after, open: s.drainCh, held: make(chan struct{})}
}

type gatedConn struct {
	*netsim.Vantage
	g     *gate
	sends int
}

func (g *gate) conn(v *netsim.Vantage) probe.Conn { return &gatedConn{Vantage: v, g: g} }

func (c *gatedConn) hold() {
	if c.sends++; c.sends > c.g.after {
		c.g.once.Do(func() { close(c.g.held) })
		<-c.g.open
	}
}

func (c *gatedConn) Send(pkt []byte) error {
	c.hold()
	return c.Vantage.Send(pkt)
}

func (c *gatedConn) SendBatch(pkts [][]byte, gap time.Duration) (int, bool, error) {
	c.hold()
	return c.Vantage.SendBatch(pkts, gap)
}

// TestSoakDrainRestartChain is the restart half of the acceptance
// harness: a supervisor is drained mid-flight, a second supervisor
// resumes the drained artifacts on a fresh identically-seeded universe
// and is itself drained, and a third runs everything to completion.
// Every campaign's final store must be byte-identical to its
// uninterrupted solo run — including a crash-faulted campaign whose
// fault plane re-applies across every restart.
func TestSoakDrainRestartChain(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	const seed = 9100
	fc := &faultsim.Config{Seed: 0xc4a1, Rules: []faultsim.Rule{
		{Vantage: "US-EDU-1", Campaign: "tc/c", Shard: 0, Kind: faultsim.KindCrash, At: 300 * time.Millisecond},
	}}
	tenants := []Tenant{{Name: "ta"}, {Name: "tb"}, {Name: "tc"}}
	specs := []CampaignSpec{
		testSpec("ta", "a", schedTargets(seed, 48)),
		testSpec("tb", "b", schedTargets(seed+1, 40)),
		testSpec("tc", "c", schedTargets(seed+2, 44)),
	}
	specs[0].Shards, specs[0].Batch = 2, 64
	specs[1].Shards, specs[1].Batch = 1, 1
	specs[2].Shards, specs[2].Batch = 3, 16

	type ref struct {
		store *probe.Store
		stats core.CampaignStats
	}
	refs := map[string]ref{}
	for _, sp := range specs {
		store, stats, err := soloRun(t, seed, fc, sp)
		if err != nil {
			t.Fatalf("%s reference: %v", sp.Tag(), err)
		}
		refs[sp.Tag()] = ref{store, stats}
	}

	// runStage executes one supervisor generation: submit, then either
	// run every campaign to completion or — holdAfter > 0 — hold each
	// campaign's connections past holdAfter sends and drain once every
	// campaign is held; and split the outcomes into final results and
	// respawn specs for the next generation. The supervisor's clock never
	// moves, so no watchdog fires while a campaign is held.
	finals := map[string]*Result{}
	runStage := func(stage int, pending []CampaignSpec, holdAfter int) []CampaignSpec {
		env := newTestEnv(seed, fc)
		gates := map[string]*gate{}
		op := func(spec *CampaignSpec) (core.ConnFactory, error) {
			inner, err := env.opener(spec)
			g := gates[spec.Tag()]
			if err != nil || g == nil {
				return inner, err
			}
			return func(shard int, start time.Duration) probe.Conn {
				return g.conn(inner(shard, start).(*netsim.Vantage))
			}, nil
		}
		s, err := newSupervisor(op, Options{Workers: len(pending), Tenants: tenants}, newFakeClock())
		if err != nil {
			t.Fatal(err)
		}
		if holdAfter > 0 {
			for _, sp := range pending {
				gates[sp.Tag()] = newGate(s, holdAfter)
			}
		}
		handles := map[string]*Handle{}
		for _, sp := range pending {
			h, err := s.Submit(sp)
			if err != nil {
				t.Fatalf("stage %d submit %s: %v", stage, sp.Tag(), err)
			}
			handles[sp.Tag()] = h
		}
		var next []CampaignSpec
		if holdAfter > 0 {
			for tag, h := range handles {
				select {
				case <-gates[tag].held:
				case <-h.Done():
				}
			}
			ds := drainAll(t, s)
			for _, d := range ds {
				sp := d.Spec
				sp.Resume = d.Artifact
				next = append(next, sp)
			}
		} else {
			for tag, h := range handles {
				if _, err := h.Wait(context.Background()); err != nil {
					t.Fatalf("stage %d wait %s: %v", stage, tag, err)
				}
			}
			drainAll(t, s)
		}
		for tag, h := range handles {
			res := h.Result()
			if res == nil {
				t.Fatalf("stage %d: %s has no result after drain", stage, tag)
			}
			switch res.State {
			case StateCompleted:
				finals[tag] = res
			case StateDrained:
			default:
				t.Fatalf("stage %d: %s state %v reason %q err %v", stage, tag, res.State, res.Reason, res.Err)
			}
		}
		return next
	}

	// Two held stages of at most 25 sends per connection stay short of
	// tc/c's crash, whose quarantine would leave nothing to checkpoint.
	pending := specs
	pending = runStage(1, pending, 25)
	if len(finals) == len(specs) {
		t.Log("every campaign completed before the first drain; chain degenerate but valid")
	}
	if len(pending) > 0 {
		pending = runStage(2, pending, 25)
	}
	if len(pending) > 0 {
		runStage(3, pending, 0)
	}

	if len(finals) != len(specs) {
		t.Fatalf("only %d of %d campaigns completed across the chain", len(finals), len(specs))
	}
	for _, sp := range specs {
		res := finals[sp.Tag()]
		want := refs[sp.Tag()]
		if !res.Store.Equal(want.store) {
			t.Fatalf("%s: chained store differs from uninterrupted run", sp.Tag())
		}
		if res.Stats.ProbesSent != want.stats.ProbesSent || res.Stats.Replies != want.stats.Replies {
			t.Fatalf("%s: chained stats %+v vs %+v", sp.Tag(), res.Stats.Stats, want.stats.Stats)
		}
		wantGraph := graphFromStore(t, want.store, sp)
		if !bytes.Equal(graphFromStore(t, res.Store, sp), wantGraph) {
			t.Fatalf("%s: chained graph differs from uninterrupted run", sp.Tag())
		}
	}
}

// graphFromStore renders the reference graph for byte comparison.
func graphFromStore(t *testing.T, store *probe.Store, sp CampaignSpec) []byte {
	t.Helper()
	proto := sp.Proto
	if proto == 0 {
		proto = wire.ProtoICMPv6
	}
	var buf bytes.Buffer
	if err := graph.FromStore(store, sp.Vantage, proto).WriteNDJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
