package core

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"beholder/internal/faultsim"
	"beholder/internal/netsim"
	"beholder/internal/probe"
	"beholder/internal/telemetry"
	"beholder/internal/testutil"
)

// foldCut is one way to cut a campaign short of its uninterrupted run.
type foldCut struct {
	name string
	// at interrupts at this instant after the campaign epoch.
	at time.Duration
	// interruptAfter calls Interrupt, from a goroutine of its own, when
	// the campaign's SendBatch calls reach this count.
	interruptAfter int
	// crash kills shard 0's host at this instant (faultsim), so the
	// shard finishes its window on a fresh connection.
	crash time.Duration
	// neighborhood runs the heuristic at batch 1 — the fold catches up
	// after every drain — and cuts it at the at instant.
	neighborhood bool
	// lastNewOnly sets NeighborhoodTTL without a window: nothing is
	// skipped, but the fold still records last discoveries per TTL, which
	// the capture must read after the fold has caught up.
	lastNewOnly bool
}

// interruptConn calls fire before the campaign's after-th SendBatch,
// counted over every shard's connection.
type interruptConn struct {
	*netsim.Vantage
	after *atomic.Int64
	fire  func()
}

func (c *interruptConn) SendBatch(pkts [][]byte, gap time.Duration) (int, bool, error) {
	if c.after.Add(-1) == 0 {
		c.fire()
	}
	return c.Vantage.SendBatch(pkts, gap)
}

// foldCfg is the configuration every fold-pipeline run shares; the
// heuristic's cut adds the neighborhood window at batch 1.
func foldCfg(targets []netip.Addr, c foldCut) Config {
	cfg := campaignCfg(targets)
	if c.neighborhood {
		cfg.NeighborhoodWindow, cfg.NeighborhoodTTL, cfg.Batch = 200*time.Millisecond, 3, 1
	}
	if c.lastNewOnly {
		cfg.NeighborhoodTTL = 3
	}
	return cfg
}

// foldRun runs the campaign cut as c says (the zero cut runs it whole)
// and, after a cut, continues it by Resume on a fresh identically seeded
// universe. It returns the finished run, and the interrupted one's stats
// and checkpoint artifact.
func foldRun(t *testing.T, seed int64, targets []netip.Addr, shards int, c foldCut) (ckptRun, CampaignStats, []byte) {
	t.Helper()
	var fc *faultsim.Config
	if c.crash > 0 {
		fc = &faultsim.Config{Rules: []faultsim.Rule{{Vantage: "US-EDU-1", Shard: 0, Kind: faultsim.KindCrash, At: c.crash}}}
	}
	var progress bytes.Buffer
	cut := c.at > 0 || c.interruptAfter > 0
	_, v := chaosEnv(seed, fc)
	ccfg := CampaignConfig{Config: foldCfg(targets, c), Shards: shards, RecordPaths: true,
		Telemetry: telemetry.NewRegistry(), InterruptAt: c.at}
	if !cut {
		ccfg.ProgressWriter = &progress
	}
	var camp *Campaign
	conns := func(_ int, start time.Duration) probe.Conn { return v.Clone(start) }
	if c.interruptAfter > 0 {
		after := new(atomic.Int64)
		after.Store(int64(c.interruptAfter))
		fire := func() {
			done := make(chan struct{})
			go func() {
				camp.Interrupt()
				close(done)
			}()
			<-done
		}
		conns = func(_ int, start time.Duration) probe.Conn {
			return &interruptConn{Vantage: v.Clone(start), after: after, fire: fire}
		}
	}
	camp = NewCampaign(ccfg, conns)
	store, stats, err := camp.Run()
	if !cut {
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		return ckptRun{store: store, graph: graphNDJSON(t, store), progress: progress.Bytes(), stats: stats}, stats, nil
	}
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("%s: cut run: got %v, want ErrInterrupted", c.name, err)
	}
	art, err := camp.Checkpoint()
	if err != nil {
		t.Fatalf("%s: checkpoint: %v", c.name, err)
	}
	_, v2 := chaosEnv(seed, fc)
	resumed, err := Resume(art, ResumeConfig{Telemetry: telemetry.NewRegistry(), ProgressWriter: &progress},
		func(_ int, start time.Duration) probe.Conn { return v2.Clone(start) })
	if err != nil {
		t.Fatalf("%s: resume: %v", c.name, err)
	}
	store, rstats, err := resumed.Run()
	if err != nil {
		t.Fatalf("%s: resumed run: %v", c.name, err)
	}
	return ckptRun{store: store, graph: graphNDJSON(t, store), progress: progress.Bytes(), stats: rstats}, stats, art
}

// TestFoldPipelineCuts cuts 1- and 3-shard campaigns at the edges of the
// reply fold pipeline — an interrupt while a fold block is half full, one
// in the drain tail, Interrupt from another goroutine, host crashes that
// continue a shard on a fresh connection (late ones with a fill due,
// which the continuation must send), and the neighborhood
// heuristic, which waits for the fold after every drain — and requires
// each to finish with the store bytes, progress stream and counters of
// the uninterrupted run, with no goroutine left behind. A cut whose
// capture reads fold state (the last discovery per TTL) must also
// checkpoint the same bytes every time.
func TestFoldPipelineCuts(t *testing.T) {
	const seed = 4711
	targets := campaignTargets(t, seed, 300)
	cfg := foldCfg(targets, foldCut{})
	if err := cfg.setDefaults(); err != nil {
		t.Fatal(err)
	}
	span := time.Duration(Domain(&cfg)) * sendGap(cfg.PPS)
	cuts := []foldCut{
		{name: "interrupt-mid-block", at: span/2 + 3*time.Millisecond},
		{name: "interrupt-drain-tail", at: span + 5*time.Millisecond},
		{name: "interrupt-call", interruptAfter: 700},
		{name: "crash", crash: span / 7},
		// Late enough that shard 0 dies with a fill due: the fill fails
		// and the continuation must send it at its instant.
		{name: "crash-late", crash: span / 2},
		// Just past a third of the span: with 3 shards, shard 0 dies in
		// its drain tail, where only fills are sent, so the continuation
		// must send the lost fill and finish the original drain.
		{name: "crash-tail", crash: span/3 + 20*time.Millisecond},
		{name: "neighborhood-batch-1", neighborhood: true, at: span / 2},
		{name: "last-new-only", lastNewOnly: true, at: span/2 + 3*time.Millisecond},
	}
	for _, shards := range []int{1, 3} {
		ref, _, _ := foldRun(t, seed, targets, shards, foldCut{name: "reference"})
		hood, _, _ := foldRun(t, seed, targets, shards, foldCut{name: "neighborhood reference", neighborhood: true})
		if hood.stats.Skipped == 0 {
			t.Fatalf("%d shards: the neighborhood heuristic skipped nothing", shards)
		}
		for _, c := range cuts {
			t.Run(fmt.Sprintf("%s/shards=%d", c.name, shards), func(t *testing.T) {
				testutil.NoGoroutineLeaks(t)
				got, part, art := foldRun(t, seed, targets, shards, c)
				want := ref
				if c.neighborhood {
					want = hood
				}
				assertRunsEqual(t, c.name, got, want)
				switch c.name {
				case "interrupt-mid-block":
					// The shard probing at the cut has handed over more
					// than a block of replies, and not a whole number of
					// blocks.
					mid := false
					for _, st := range part.PerShard {
						mid = mid || st.Replies > foldBlockLen && st.Replies%foldBlockLen != 0
					}
					if !mid {
						t.Fatalf("no shard was cut inside its reply stream: %+v", part.PerShard)
					}
				case "interrupt-drain-tail":
					if part.ProbesSent-part.Fills != int64(Domain(&cfg)) {
						t.Fatalf("cut before the window ended: %d of %d permutation probes sent", part.ProbesSent-part.Fills, Domain(&cfg))
					}
				case "interrupt-call":
					if part.ProbesSent == 0 || part.ProbesSent >= ref.stats.ProbesSent {
						t.Fatalf("Interrupt landed outside the run: %d of %d probes sent", part.ProbesSent, ref.stats.ProbesSent)
					}
				case "crash", "crash-late", "crash-tail":
					if c.name == "crash-late" && shards > 1 {
						// Shard 0 finished its window and its tail's
						// fills before the crash.
						break
					}
					if len(got.stats.Quarantined) != 1 || got.stats.Quarantined[0] != 0 {
						t.Fatalf("quarantined = %v, want [0]", got.stats.Quarantined)
					}
				case "last-new-only":
					if _, _, again := foldRun(t, seed, targets, shards, c); !bytes.Equal(art, again) {
						t.Fatal("the same cut checkpointed different bytes")
					}
				}
			})
		}
	}
}

// fillFaultConn fails every fourth single-packet send (fills are the
// only ones) with a transient error — always a fill's first attempt, as
// the attempt before it went out — logs each attempt's destination and
// hop limit, and refuses a send after a failure that is not its retry.
// It also rebuilds every batch packet with the prober's codec for the
// instant it departs and counts those stamped for another (stale).
type fillFaultConn struct {
	*netsim.Vantage
	y               *Yarrp6
	calls, failures int
	attempts        []fillAttempt
	stale           int
	buf             [probeStride]byte
}

func (c *fillFaultConn) SendBatch(pkts [][]byte, gap time.Duration) (int, bool, error) {
	for i, p := range pkts {
		n := c.y.codec.BuildProbeAt(c.buf[:], netip.AddrFrom16([16]byte(p[24:40])), p[7], c.Now()+time.Duration(i)*gap)
		if !bytes.Equal(c.buf[:n], p) {
			c.stale++
		}
	}
	return c.Vantage.SendBatch(pkts, gap)
}

type fillAttempt struct {
	dst    netip.Addr
	hop    uint8
	failed bool
}

func (c *fillFaultConn) Send(pkt []byte) error {
	c.calls++
	a := fillAttempt{dst: netip.AddrFrom16([16]byte(pkt[24:40])), hop: pkt[7]}
	n := len(c.attempts)
	if a.failed = c.calls%4 == 2; a.failed {
		c.failures++
	}
	c.attempts = append(c.attempts, a)
	if a.failed {
		return &faultsim.TransientSendError{Vantage: "US-EDU-1", At: c.Now()}
	}
	if n > 0 && c.attempts[n-1].failed && (c.attempts[n-1].dst != a.dst || c.attempts[n-1].hop != a.hop) {
		return fmt.Errorf("fill to %v hop %d failed and was not retried", c.attempts[n-1].dst, c.attempts[n-1].hop)
	}
	return c.Vantage.Send(pkt)
}

// TestFillTransientRetried: a fill whose send fails transiently backs
// off one slot and is sent again, like a batch send, instead of being
// dropped; the probes pre-built behind it are restamped, so every probe
// carries the instant it departs.
func TestFillTransientRetried(t *testing.T) {
	const seed = 4711
	targets := campaignTargets(t, seed, 120)
	_, v := chaosEnv(seed, nil)
	conn := &fillFaultConn{Vantage: v.Clone(v.Now())}
	conn.y = New(conn, campaignCfg(targets))
	stats, err := conn.y.Run(probe.NewStore(true))
	if err != nil {
		t.Fatal(err)
	}
	if conn.stale > 0 {
		t.Fatalf("%d batch probes departed at an instant they were not stamped for", conn.stale)
	}
	if conn.failures < 3 {
		t.Fatalf("%d of %d fill sends failed, want several", conn.failures, conn.calls)
	}
	if stats.Retries != int64(conn.failures) || stats.Fills != int64(conn.calls-conn.failures) {
		t.Fatalf("%d fill sends, %d failed: stats report %d fills, %d retries", conn.calls, conn.failures, stats.Fills, stats.Retries)
	}
}

// TestFoldBlocksReused: fold blocks outlive the run that used them, so
// a second daemon-sized campaign (9 600 probes) takes every block it
// folds through from the pool and allocates none.
func TestFoldBlocksReused(t *testing.T) {
	const seed = 77
	targets := campaignTargets(t, seed, 600)
	run := func() {
		_, v := chaosEnv(seed, nil)
		cfg := campaignCfg(targets)
		cfg.MaxTTL, cfg.Fill = 16, false
		camp := NewCampaign(CampaignConfig{Config: cfg, ProgressWriter: &bytes.Buffer{}},
			func(_ int, start time.Duration) probe.Conn { return v.Clone(start) })
		_, stats, err := camp.Run()
		if err != nil {
			t.Fatal(err)
		}
		if stats.ProbesSent != 9600 {
			t.Fatalf("sent %d probes, want 9600", stats.ProbesSent)
		}
	}
	pooled := func() map[*foldBlock]bool {
		foldPool.Lock()
		defer foldPool.Unlock()
		blocks := map[*foldBlock]bool{}
		for _, f := range foldPool.idle {
			blocks[f.cur] = true
			for _, b := range f.spare {
				blocks[b] = true
			}
		}
		return blocks
	}
	// Start from an empty pool, so the first run builds the one pipe the
	// second must take back.
	foldPool.Lock()
	foldPool.idle = nil
	foldPool.Unlock()
	run()
	first := pooled()
	if len(first) == 0 {
		t.Fatal("a finished run left no fold block in the pool")
	}
	run()
	if second := pooled(); !maps.Equal(first, second) {
		t.Fatalf("the second run changed the pooled blocks: %d before, %d after", len(first), len(second))
	}
}
