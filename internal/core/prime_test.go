package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"beholder/internal/netsim"
	"beholder/internal/probe"
	"beholder/internal/telemetry"
	"beholder/internal/testutil"
)

// slowPrimeConn wall-slows the prime replay (virtual time, and so every
// result byte, is untouched) and reports whether a replay is running,
// so a test can aim interrupts at it. Everything else promotes from the
// embedded vantage.
type slowPrimeConn struct {
	*netsim.Vantage
	replaying *atomic.Bool // shared by the campaign's connections
	n         int
}

func (c *slowPrimeConn) BeginPrime() {
	c.replaying.Store(true)
	c.Vantage.BeginPrime()
}

func (c *slowPrimeConn) EndPrime() {
	c.Vantage.EndPrime()
	c.replaying.Store(false)
}

// PrimeRun pauses before every 16th replayed probe, splitting the run
// there so the pause falls between the same probes it would between
// one-probe replays.
func (c *slowPrimeConn) PrimeRun(toks []int, ttls []uint8, at0, gap time.Duration) {
	from := 0
	for i, tok := range toks {
		if tok < 0 {
			continue
		}
		if c.n++; c.n%16 == 0 {
			c.Vantage.PrimeRun(toks[from:i], ttls[from:i], at0+time.Duration(from)*gap, gap)
			time.Sleep(200 * time.Microsecond)
			from = i
		}
	}
	c.Vantage.PrimeRun(toks[from:], ttls[from:], at0+time.Duration(from)*gap, gap)
}

// noImportConn refuses bucket snapshots: the shard behind it is released
// un-primed and must fall back to replaying its own prefix.
type noImportConn struct{ *netsim.Vantage }

func (noImportConn) ImportSimState([]byte) error { return errors.New("import refused") }

// primeCut says how a pipelined-prime run is cut short.
type primeCut struct {
	cancelled   bool          // Interrupt() before Run
	interruptIn time.Duration // >0: Interrupt() from another goroutine after this much wall time
	interruptAt time.Duration // >0: CampaignConfig.InterruptAt
}

// primeCutRun runs the saturating campaign with a wall-slowed replay,
// cuts it as asked, checkpoints, resumes on a fresh identically-seeded
// universe and finishes. It returns the finished run, the artifact at
// the cut (nil when the campaign outran the interrupt) and whether the
// interrupt landed while the replay was still running.
func primeCutRun(t *testing.T, seed int64, targets []netip.Addr, shards, batch int, cut primeCut) (run ckptRun, art []byte, duringReplay bool) {
	t.Helper()
	_, v := saturationVantage(seed)
	cfg := saturationCfg(targets)
	cfg.Batch = batch
	var replaying atomic.Bool
	var progress bytes.Buffer
	camp := NewCampaign(CampaignConfig{
		Config:         cfg,
		Shards:         shards,
		RecordPaths:    true,
		Telemetry:      telemetry.NewRegistry(),
		ProgressWriter: &progress,
		InterruptAt:    cut.interruptAt,
	}, func(_ int, start time.Duration) probe.Conn {
		return &slowPrimeConn{Vantage: v.Clone(start), replaying: &replaying}
	})
	if cut.cancelled {
		camp.Interrupt()
	}
	fired := make(chan struct{})
	if cut.interruptIn > 0 {
		go func() {
			defer close(fired)
			time.Sleep(cut.interruptIn)
			duringReplay = replaying.Load()
			camp.Interrupt()
		}()
	} else {
		close(fired)
	}
	store, stats, err := camp.Run()
	<-fired
	if err == nil {
		// The campaign outran the interrupt: nothing to resume.
		return ckptRun{store: store, graph: graphNDJSON(t, store), progress: progress.Bytes(), stats: stats}, nil, false
	}
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("cut run: got err %v, want ErrInterrupted", err)
	}
	if cut.cancelled && stats.ProbesSent != 0 {
		t.Fatalf("pre-cancelled run sent %d probes", stats.ProbesSent)
	}
	art, err = camp.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	_, v2 := saturationVantage(seed)
	progress.Reset()
	camp2, err := Resume(art, ResumeConfig{
		Telemetry:      telemetry.NewRegistry(),
		ProgressWriter: &progress,
	}, func(_ int, start time.Duration) probe.Conn { return v2.Clone(start) })
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	store, stats, err = camp2.Run()
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	return ckptRun{store: store, graph: graphNDJSON(t, store), progress: progress.Bytes(), stats: stats}, art, duringReplay
}

// TestPipelinedPrimeChaosCancel cuts campaigns whose bucket priming
// overlaps their first shard — before the first probe, from another
// goroutine while the replay is still running, and at a virtual instant
// inside shard 0's window — on a universe whose rate limiters the
// schedule saturates. Wherever the cut lands the campaign must
// checkpoint, resume and finish byte-equal to the uninterrupted serial
// run; where the cut is a deterministic one the artifact itself must not
// depend on scheduling; and the primer goroutine must be gone when
// Run returns.
func TestPipelinedPrimeChaosCancel(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	const seed = 907
	u, _ := saturationVantage(seed)
	targets := gatewayTargets(u, 48, seed)
	if _, dropped := satReference(t, seed, targets, 1, 1); dropped == 0 {
		t.Fatal("reference run never tripped a rate limiter; the test is not exercising saturation")
	}
	rng := rand.New(rand.NewSource(seed))
	landed := 0
	for _, shards := range []int{2, 4} {
		for _, batch := range []int{1, 64} {
			// The cell's uninterrupted run, which TestCampaignEquivalence
			// holds to the serial bytes.
			ref, _ := satReference(t, seed, targets, shards, batch)
			// Artifacts of the deterministic cuts, from the first
			// GOMAXPROCS setting; the second must reproduce them.
			var zeroArt, windowArt []byte
			for _, procs := range []int{1, 4} {
				label := fmt.Sprintf("shards=%d batch=%d procs=%d", shards, batch, procs)
				prev := runtime.GOMAXPROCS(procs)

				got, art, _ := primeCutRun(t, seed, targets, shards, batch, primeCut{cancelled: true})
				assertRunsEqual(t, label+" cancelled before run", got, ref)
				if zeroArt == nil {
					zeroArt = art
				} else if !bytes.Equal(art, zeroArt) {
					t.Fatalf("%s: artifact of a pre-cancelled run depends on scheduling", label)
				}

				for i := 0; i < 3; i++ {
					in := time.Duration(1+rng.Intn(4000)) * time.Microsecond
					got, _, during := primeCutRun(t, seed, targets, shards, batch, primeCut{interruptIn: in})
					assertRunsEqual(t, fmt.Sprintf("%s Interrupt() after %v", label, in), got, ref)
					if during {
						landed++
					}
				}

				// 576 probes at 8 kpps: shard 0's window spans 18 ms (4
				// shards) or 36 ms (2 shards) of virtual time.
				got, art, _ = primeCutRun(t, seed, targets, shards, batch, primeCut{interruptAt: 10 * time.Millisecond})
				assertRunsEqual(t, label+" InterruptAt inside shard 0's window", got, ref)
				if windowArt == nil {
					windowArt = art
				} else if !bytes.Equal(art, windowArt) {
					t.Fatalf("%s: artifact at a virtual interrupt instant depends on scheduling", label)
				}

				runtime.GOMAXPROCS(prev)
			}
		}
	}
	if landed == 0 {
		t.Fatal("no Interrupt() landed while the replay was running; the test is not exercising the overlap")
	}
}

// TestPipelinedPrimeChaosImportFails: a shard whose connection refuses
// its bucket snapshot is released un-primed and replays its own prefix;
// the campaign still yields the serial bytes.
func TestPipelinedPrimeChaosImportFails(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	const seed = 907
	u, _ := saturationVantage(seed)
	targets := gatewayTargets(u, 48, seed)
	ref, dropped := satReference(t, seed, targets, 4, DefaultBatch)
	if dropped == 0 {
		t.Fatal("reference run never tripped a rate limiter")
	}
	for _, bad := range []int{1, 2} {
		_, v := saturationVantage(seed)
		var progress bytes.Buffer
		camp := NewCampaign(CampaignConfig{
			Config:         saturationCfg(targets),
			Shards:         4,
			RecordPaths:    true,
			Telemetry:      telemetry.NewRegistry(),
			ProgressWriter: &progress,
		}, func(shard int, start time.Duration) probe.Conn {
			if shard == bad {
				return noImportConn{v.Clone(start)}
			}
			return v.Clone(start)
		})
		store, stats, err := camp.Run()
		if err != nil {
			t.Fatal(err)
		}
		got := ckptRun{store: store, graph: graphNDJSON(t, store), progress: progress.Bytes(), stats: stats}
		assertRunsEqual(t, fmt.Sprintf("shard %d refuses its snapshot", bad), got, ref)
	}
}

// TestCampaignPhaseTelemetry: the campaign's once-per-run sections —
// the prime replay, each shard's wait for its bucket snapshot, and the
// store fold — are readable from the registry.
func TestCampaignPhaseTelemetry(t *testing.T) {
	const seed = 907
	u, v := saturationVantage(seed)
	reg := telemetry.NewRegistry()
	camp := NewCampaign(CampaignConfig{
		Config:    saturationCfg(gatewayTargets(u, 48, seed)),
		Shards:    4,
		Telemetry: reg,
	}, func(_ int, start time.Duration) probe.Conn { return v.Clone(start) })
	if _, _, err := camp.Run(); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		"yarrp_prime_replay_usec":     1,
		"yarrp_shard_prime_wait_usec": 3, // shard 0 never waits
		"yarrp_fold_usec":             1,
	} {
		h, ok := snap.Histogram(name)
		if !ok || h.Count != want {
			t.Errorf("%s: %d observations (present %v), want %d", name, h.Count, ok, want)
		}
	}
}
