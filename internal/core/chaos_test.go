package core

import (
	"bytes"
	"errors"
	"net/netip"
	"testing"
	"time"

	"beholder/internal/faultsim"
	"beholder/internal/netsim"
	"beholder/internal/probe"
	"beholder/internal/telemetry"
	"beholder/internal/testutil"
)

// chaosEnv is one campaign execution environment: an identically-seeded
// universe with a fault plane installed before any vantage exists, so
// every clone resolves its fault plan at creation.
func chaosEnv(seed int64, fc *faultsim.Config) (*netsim.Universe, *netsim.Vantage) {
	u := campaignUniverse(seed)
	u.SetFaults(fc)
	v := u.NewVantage(netsim.VantageSpec{Name: "US-EDU-1", Kind: netsim.KindUniversity, ChainLen: 4})
	return u, v
}

// chaosOut is one faulted campaign's comparable output.
type chaosOut struct {
	store    *probe.Store
	graph    []byte
	progress []byte
	stats    CampaignStats
	sim      netsim.SimStats
	tel      telemetry.Snapshot
	err      error
}

// chaosRun executes one campaign under the given fault plane. A zero
// interruptAt runs to completion (or graceful degradation); a non-zero
// one interrupts, checkpoints, and resumes on a fresh identically-
// faulted universe before running out the remainder.
func chaosRun(t *testing.T, seed int64, fc *faultsim.Config, targets []netip.Addr, shards, batch int, interruptAt time.Duration) chaosOut {
	t.Helper()
	u, v := chaosEnv(seed, fc)
	cfg := campaignCfg(targets)
	cfg.Batch = batch
	var progress bytes.Buffer
	ccfg := CampaignConfig{
		Config:      cfg,
		Shards:      shards,
		RecordPaths: true,
		Telemetry:   telemetry.NewRegistry(),
		InterruptAt: interruptAt,
	}
	if interruptAt == 0 {
		ccfg.ProgressWriter = &progress
	}
	camp := NewCampaign(ccfg, func(_ int, start time.Duration) probe.Conn { return v.Clone(start) })
	store, stats, err := camp.Run()
	if interruptAt == 0 {
		return chaosOut{store: store, graph: graphNDJSON(t, store), progress: progress.Bytes(),
			stats: stats, sim: u.StatsSnapshot(), tel: ccfg.Telemetry.Snapshot(), err: err}
	}
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("faulted interrupt run: got %v, want ErrInterrupted", err)
	}
	art, err := camp.Checkpoint()
	if err != nil {
		t.Fatalf("faulted checkpoint: %v", err)
	}
	u2, v2 := chaosEnv(seed, fc)
	camp2, err := Resume(art, ResumeConfig{
		Telemetry:      telemetry.NewRegistry(),
		ProgressWriter: &progress,
	}, func(_ int, start time.Duration) probe.Conn { return v2.Clone(start) })
	if err != nil {
		t.Fatalf("faulted resume: %v", err)
	}
	store, stats, err = camp2.Run()
	return chaosOut{store: store, graph: graphNDJSON(t, store), progress: progress.Bytes(),
		stats: stats, sim: u2.StatsSnapshot(), err: err}
}

// TestCampaignChaosMatrix drives the headline failure modes across
// the shard × batch grid. For every cell it checks the scenario's
// recovery invariants on an uninterrupted faulted run, then interrupts
// the same faulted campaign mid-flight, checkpoints, resumes on a fresh
// universe, and requires the resumed run to reproduce the uninterrupted
// faulted run byte for byte — faults are part of the deterministic
// schedule, so checkpoint/resume must commute with them.
func TestCampaignChaosMatrix(t *testing.T) {
	const seed = 2718
	targets := campaignTargets(t, seed, 61)
	clean := ckptReference(t, seed, targets, 1, 1)
	crash := []faultsim.Rule{{Vantage: "US-EDU-1", Shard: 0, Kind: faultsim.KindCrash, At: 300 * time.Millisecond}}
	// A crash is an interrupt: the dead shard continues on a fresh
	// connection from its cursor, so with lossless replies the run is
	// the fault-free one — the same store, probes and progress stream.
	crashCheck := func(t *testing.T, out chaosOut) {
		if out.err != nil {
			t.Fatalf("crash recovery: %v", out.err)
		}
		if len(out.stats.Quarantined) != 1 || out.stats.Quarantined[0] != 0 {
			t.Fatalf("quarantined = %v, want [0]", out.stats.Quarantined)
		}
		if len(out.stats.Incomplete) != 0 {
			t.Fatalf("incomplete ranges: %v", out.stats.Incomplete)
		}
		if !out.store.Equal(clean.store) {
			t.Fatal("crash-recovered store differs from fault-free store")
		}
		if !bytes.Equal(out.progress, clean.progress) {
			t.Fatalf("crash-recovered progress differs from fault-free:\nclean: %s\ngot:   %s", clean.progress, out.progress)
		}
		if out.stats.ProbesSent != clean.stats.ProbesSent {
			t.Fatalf("probes sent %d, fault-free %d", out.stats.ProbesSent, clean.stats.ProbesSent)
		}
		// A continuation publishes only what it adds to the record.
		if n, _ := out.tel.Counter("yarrp_probes_sent_total"); n != out.stats.ProbesSent {
			t.Fatalf("yarrp_probes_sent_total = %d, run sent %d", n, out.stats.ProbesSent)
		}
		if out.sim.FaultCrashDenials == 0 {
			t.Fatal("no crash denials counted")
		}
	}

	scenarios := []struct {
		name        string
		rules       []faultsim.Rule
		interruptAt time.Duration
		check       func(t *testing.T, out chaosOut)
	}{
		{
			// Shard 0's host dies a fifth of the way through its window.
			name:        "crash",
			rules:       crash,
			interruptAt: 200 * time.Millisecond, // before the crash fires
			check:       crashCheck,
		},
		{
			// The same crash, then an interrupt: the continued shard stops
			// at the interrupt like any shard, so the run checkpoints.
			// Resumed on a fresh universe, shard 0 reopens on clone
			// ordinal 0, meets its crash rule again and restarts at once.
			name:        "crash-then-interrupt",
			rules:       crash,
			interruptAt: 400 * time.Millisecond,
			check:       crashCheck,
		},
		{
			// A blackhole window swallows outbound probes: sends succeed,
			// replies never materialize. The campaign completes without
			// quarantine; every index is still probed exactly once.
			name: "stall",
			rules: []faultsim.Rule{{Vantage: "US-EDU-1", Shard: faultsim.MatchAnyShard,
				Kind: faultsim.KindStall, At: 200 * time.Millisecond, Duration: 150 * time.Millisecond}},
			interruptAt: 250 * time.Millisecond, // inside the stall window
			check: func(t *testing.T, out chaosOut) {
				if out.err != nil {
					t.Fatalf("stall run: %v", out.err)
				}
				if len(out.stats.Quarantined) != 0 {
					t.Fatalf("stall quarantined %v", out.stats.Quarantined)
				}
				// Fill probes are reply-triggered, so their count moves with
				// the faults; the permutation-driven sends must not.
				if got, want := out.stats.ProbesSent-out.stats.Fills, clean.stats.ProbesSent-clean.stats.Fills; got != want {
					t.Fatalf("permutation probes sent %d, fault-free %d", got, want)
				}
				if out.stats.Replies >= clean.stats.Replies {
					t.Fatalf("stall lost no replies: %d vs %d", out.stats.Replies, clean.stats.Replies)
				}
				if out.sim.FaultStallDrops == 0 {
					t.Fatal("no stall drops counted")
				}
			},
		},
		{
			// EAGAIN-shaped send failures: the prober retries at the next
			// gap instant with bounded backoff and the campaign completes
			// with every index sent.
			name: "transient-send",
			rules: []faultsim.Rule{{Vantage: "US-EDU-1", Shard: faultsim.MatchAnyShard,
				Kind: faultsim.KindTransientSend, Prob: 0.1}},
			interruptAt: 250 * time.Millisecond,
			check: func(t *testing.T, out chaosOut) {
				if out.err != nil {
					t.Fatalf("transient run: %v", out.err)
				}
				if len(out.stats.Quarantined) != 0 {
					t.Fatalf("transient quarantined %v", out.stats.Quarantined)
				}
				if out.stats.Retries == 0 {
					t.Fatal("no retries recorded")
				}
				// Fill probes are reply-triggered, so their count moves with
				// the faults; the permutation-driven sends must not.
				if got, want := out.stats.ProbesSent-out.stats.Fills, clean.stats.ProbesSent-clean.stats.Fills; got != want {
					t.Fatalf("permutation probes sent %d, fault-free %d", got, want)
				}
				if out.sim.FaultTransientErrs == 0 {
					t.Fatal("no transient errors counted")
				}
			},
		},
		{
			// Bit-flipped replies: damaged packets parse as garbage or
			// fail the not-mine check, never crash the decoder, and the
			// campaign completes cleanly.
			name: "corrupt-reply",
			rules: []faultsim.Rule{{Vantage: "US-EDU-1", Shard: faultsim.MatchAnyShard,
				Kind: faultsim.KindCorruptReply, Prob: 0.3}},
			interruptAt: 250 * time.Millisecond,
			check: func(t *testing.T, out chaosOut) {
				if out.err != nil {
					t.Fatalf("corrupt run: %v", out.err)
				}
				if len(out.stats.Quarantined) != 0 {
					t.Fatalf("corrupt quarantined %v", out.stats.Quarantined)
				}
				// Fill probes are reply-triggered, so their count moves with
				// the faults; the permutation-driven sends must not.
				if got, want := out.stats.ProbesSent-out.stats.Fills, clean.stats.ProbesSent-clean.stats.Fills; got != want {
					t.Fatalf("permutation probes sent %d, fault-free %d", got, want)
				}
				if out.sim.FaultCorrupted == 0 {
					t.Fatal("no corrupted replies counted")
				}
			},
		},
	}

	// Every campaign below runs shard probers, their restarts and a
	// bucket primer on their own goroutines; all must have exited.
	testutil.NoGoroutineLeaks(t)
	for _, sc := range scenarios {
		fc := &faultsim.Config{Seed: 0xc4a05, Rules: sc.rules}
		t.Run(sc.name, func(t *testing.T) {
			for _, shards := range []int{1, 2, 4} {
				for _, batch := range []int{1, 64} {
					base := chaosRun(t, seed, fc, targets, shards, batch, 0)
					sc.check(t, base)
					resumed := chaosRun(t, seed, fc, targets, shards, batch, sc.interruptAt)
					label := sc.name
					if !resumed.store.Equal(base.store) {
						t.Fatalf("%s shards=%d batch=%d: resumed store differs from faulted run", label, shards, batch)
					}
					if !bytes.Equal(resumed.graph, base.graph) {
						t.Errorf("%s shards=%d batch=%d: resumed graph differs", label, shards, batch)
					}
					if !bytes.Equal(resumed.progress, base.progress) {
						t.Errorf("%s shards=%d batch=%d: resumed progress differs:\nbase: %s\ngot:  %s",
							label, shards, batch, base.progress, resumed.progress)
					}
					if resumed.stats.ProbesSent != base.stats.ProbesSent ||
						resumed.stats.Replies != base.stats.Replies {
						t.Fatalf("%s shards=%d batch=%d: resumed stats %+v vs %+v",
							label, shards, batch, resumed.stats.Stats, base.stats.Stats)
					}
					if resumed.err != nil && !errors.Is(resumed.err, base.err) {
						t.Fatalf("%s shards=%d batch=%d: resumed err %v vs %v", label, shards, batch, resumed.err, base.err)
					}
				}
			}
		})
	}
}

// TestCampaignChaosDeterminism pins the fault plane's reproducibility:
// two identically-seeded faulted campaigns produce byte-identical
// stores and progress streams even when the faults themselves discard
// or damage traffic.
func TestCampaignChaosDeterminism(t *testing.T) {
	const seed = 515
	targets := campaignTargets(t, seed, 61)
	fc := &faultsim.Config{Seed: 7, Rules: []faultsim.Rule{
		{Vantage: "US-EDU-1", Shard: faultsim.MatchAnyShard, Kind: faultsim.KindTruncateReply, Prob: 0.2},
		{Vantage: "US-EDU-1", Shard: faultsim.MatchAnyShard, Kind: faultsim.KindDelayBurst,
			At: 300 * time.Millisecond, Duration: 400 * time.Millisecond},
	}}
	a := chaosRun(t, seed, fc, targets, 2, 64, 0)
	b := chaosRun(t, seed, fc, targets, 2, 64, 0)
	if a.err != nil || b.err != nil {
		t.Fatalf("faulted runs: %v, %v", a.err, b.err)
	}
	if !a.store.Equal(b.store) {
		t.Fatal("identically-faulted stores differ")
	}
	if !bytes.Equal(a.progress, b.progress) {
		t.Fatal("identically-faulted progress streams differ")
	}
	if a.sim.FaultTruncated == 0 || a.sim.FaultDelayed == 0 {
		t.Fatalf("fault counters not exercised: %+v", a.sim)
	}
}
