// Campaign: the sharded, concurrent Yarrp6 runner.
//
// Yarrp6's permutation domain partitions trivially — the paper's own
// deployments run one prober instance per slice of the keyed permutation,
// distinguished by the Instance byte every probe carries. Campaign
// exploits that: it splits the (target × TTL) domain into N contiguous
// shards and drives each with its own Yarrp6 instance on its own
// goroutine, its own connection, and its own result store, then merges.
//
// The sharded run reproduces the single-prober run's schedule exactly.
// Shard i's connection opens its virtual clock at the moment shard i's
// window of the global schedule begins (permutation index lo_i ×
// inter-probe gap), so the union of all shard schedules is the 1-shard
// schedule probe for probe and timestamp for timestamp. Against a
// simulator whose per-packet behaviour is a pure function of (probe,
// send time) — see netsim — the merged store is deterministic whatever
// the goroutine interleaving, and a 1-shard Campaign is byte-identical
// to calling Yarrp6.Run directly. Router token buckets — the one piece
// of per-packet state that is NOT a pure function of (probe, send time)
// — are carried across shard boundaries too: beside the running shards,
// the campaign replays the schedule prefix [0, lo_max) once through the
// simulator's prime fast path and releases each shard with a bucket
// snapshot the moment the replay reaches its window start, so even under
// sustained ICMPv6 rate-limit saturation every shard sees exactly the
// bucket levels the serial run would have left it (TestCampaignEquivalence
// holds every shard count, batch size, plan-table setting and interrupt
// chain to the serial run).
//
// The replay covers the raw (target × TTL) schedule and nothing that
// depends on replies: fill-mode follow-ups, which a shard sends only when
// a reply calls for them, and neighborhood skips. A shard therefore
// opens with buckets that have not paid for earlier windows' fills and
// have paid for the probes the heuristic skipped. A bucket refills
// within its depth/rate, so the difference reaches only routers such
// probes crossed within that time of a window start, and changes a reply
// only where one of those buckets runs dry: below rate-limit saturation
// a fill-mode campaign is exact at any shard count, past it a few
// replies near window starts may differ — measured on 400 drawn
// configurations, 3 of the 85 fill-mode campaigns whose serial run
// tripped a rate limiter differed at 2, 3 or 4 shards. The neighborhood
// heuristic's skip pattern is shard-local by design, so campaigns using
// it differ across shard counts regardless (78 of 78 drawn). Either kind
// is still exact at its own shard count: any batch size, plan table on
// or off, and any chain of interrupts reproduce its uninterrupted run.
//
// The same statelessness that makes sharding trivial makes the campaign
// recoverable. Each shard's progress is exactly one permutation cursor
// plus its result store, so a campaign interrupted at any virtual
// instant checkpoints into a small artifact (Checkpoint/Resume), and a
// shard killed by a fatal connection fault is handled as an interrupt:
// it stops at its cursor and the campaign continues the same shard
// record on a fresh connection opened at the failure instant — against
// a deterministic simulator the continued store equals the fault-free
// one.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"runtime/pprof"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"beholder/internal/perm"
	"beholder/internal/probe"
	"beholder/internal/sorted"
	"beholder/internal/telemetry"
	"beholder/internal/wire"
)

// ConnFactory builds the vantage connection shard i probes through.
// start is the virtual time at which shard i's permutation window opens,
// relative to the campaign epoch; implementations backed by a virtual
// clock must open the connection's clock there so that the shard sends
// its probes at the same virtual times a single prober would have.
// Campaign.Run invokes the factory serially, before any shard starts —
// and again, still serially, once the shards have stopped, for each
// shard it continues after a fatal connection fault (then with start at
// the failure instant).
type ConnFactory func(shard int, start time.Duration) probe.Conn

// CampaignConfig parameterizes a sharded campaign.
type CampaignConfig struct {
	Config
	// Shards is the number of concurrent prober instances. Each shard s
	// probes with Instance = Config.Instance + s. Default 1.
	Shards int
	// RecordPaths enables per-target trace retention in the merged
	// store (and the per-shard stores feeding it).
	RecordPaths bool
	// NewObserver, when non-nil, builds the per-shard reply observer:
	// shard s's prober calls NewObserver(s)'s OnReply for every stored
	// reply, on the shard goroutine. The factory runs serially before
	// any shard starts. Config's own Observer field must be left nil —
	// shards may not share one unsynchronized observer. Only a fresh
	// campaign's shards get observers (a shard continued after a fault
	// keeps its own); the shards of a resumed or rewound campaign run
	// without them. A campaign's results — its graph included — are
	// functions of the merged store (graph.FromStore), and a live view of
	// a running campaign is its Progress series; what remains here serves
	// the benchmark module's layer attribution, which times a streaming
	// graph observer (bench/layers.go).
	NewObserver func(shard int) probe.Observer
	// Telemetry, when non-nil, aggregates hot-path metrics: each shard
	// folds its counters and histograms into its own telemetry.Shard
	// view of this registry at progress-sample crossings, so snapshots
	// read campaign totals without any per-probe shared-atomic traffic.
	Telemetry *telemetry.Registry
	// ProgressWriter, when non-nil, receives the campaign's progress
	// series (CampaignStats.Progress, recorded for every campaign) as
	// NDJSON after the run: sample records in virtual-time order,
	// optional per-shard records, and a final summary record. Samples are
	// deterministic — byte identical at any shard count and batch size.
	// Interrupted runs do not write the stream (the resumed run writes
	// the whole series).
	ProgressWriter io.Writer
	// ProgressPerShard adds per-shard window records (start, elapsed,
	// lag, counters) to the stream. These describe the shard layout
	// itself, so they vary with the shard count and are excluded from
	// determinism comparisons.
	ProgressPerShard bool
	// InterruptAt, when nonzero, stops the campaign at that virtual
	// instant (relative to the campaign epoch): no shard sends at or
	// past it, Run returns ErrInterrupted with the partial statistics,
	// and Checkpoint serializes the complete state so Resume continues
	// the run as if it had never stopped.
	InterruptAt time.Duration
}

// defaults fills the unset fields with the engine's values.
func (c *CampaignConfig) defaults() {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	c.Config.defaults()
}

// PermRange is a half-open permutation index range [Lo, Hi) that a
// degraded campaign did not probe.
type PermRange struct {
	Lo, Hi uint64
}

// CampaignStats extends the merged campaign counters with the per-shard
// breakdown.
type CampaignStats struct {
	Stats
	// PerShard holds each shard's own counters, one entry per shard in
	// order.
	PerShard []Stats
	// Progress is the campaign's discovery series (the paper's Figure 7):
	// cumulative counters and unique interfaces, sampled every
	// domain/128 + 1 permutation slots of virtual time — ~129 points per
	// campaign; a resumed campaign keeps the grid its artifact recorded.
	// Timestamps are relative to the campaign epoch; the final point lands
	// at Elapsed with the campaign totals.
	Progress []telemetry.Point
	// AddrTableSlots and AddrTableAddrs sum, over every shard, the slot
	// count of the store's address table and the addresses interned in
	// it when the shard stopped — before the fold fills shard 0's table
	// with everybody else's.
	AddrTableSlots int
	AddrTableAddrs int
	// Quarantined lists shards that failed with a fatal connection
	// error, in this run or in the in-process run it continues (Rewind);
	// each was continued on a fresh connection from where it stopped.
	Quarantined []int
	// Incomplete lists the unprobed remainders [cursor, hi) of shards
	// whose connections kept failing until maxRestarts ran out — the
	// explicit record of a degraded run. Such a shard is captured like
	// an interrupted one, so a continuation probes it again.
	Incomplete []PermRange
	// Epochs is an adaptive run's per-epoch breakdown, whose boundaries
	// chart its discovery; nil for a static campaign.
	Epochs []EpochStats
}

// maxRestarts bounds how many times one Run continues a shard on a
// fresh connection after a fatal connection fault.
const maxRestarts = 3

// Campaign is a sharded Yarrp6 run. A Campaign value runs once; after
// an interrupted run (InterruptAt or Interrupt) it retains the complete
// per-shard state: Checkpoint serializes it, Rewind hands it to a
// continuation, MergedStore folds its partial results.
type Campaign struct {
	cfg    CampaignConfig
	connOf ConnFactory

	// Run state, retained after Run for Checkpoint.
	domain  uint64
	gap     time.Duration
	epoch   time.Duration
	slots   uint64
	stepDur time.Duration
	shards  []*shardState
	stop    atomic.Bool
	beat    atomic.Int64
	keep    bool // per-shard state preserved (interruptible run)
	// prev holds the shard records this campaign continues — decoded by
	// Resume or handed over by Rewind; nil for a fresh campaign.
	prev []*shardState
	// partial holds an interrupted run's shards, whose stores MergedStore
	// folds on demand.
	partial []*shardState
}

// shardState is the one campaign-side record of a shard: its permutation
// window, connection, result store, first-seen list, progress samples,
// counters, and the prober's capture when the run stopped short. A run
// fills it, Checkpoint encodes it, Resume decodes into it, and Rewind
// passes it on as it is.
type shardState struct {
	index    int
	lo, hi   uint64
	instance uint8
	conn     probe.Conn
	prober   *Yarrp6
	store    *probe.Store
	prog     *telemetry.Progress
	track    *ifaceTimes
	stats    Stats
	err      error        // last fatal connection fault (quarantines the shard)
	rs       *shardResume // capture from an interrupted or failed run
	done     bool
	// ready, when non-nil, parks the shard goroutine until the primer has
	// imported the shard's window-start bucket snapshot (startPrimer).
	ready chan struct{}
}

// shardAddrs sizes a fresh shard store's address table from the campaign's
// target count: every shard's window meets nearly every target, and a
// campaign discovers about as many interfaces again, so the table is
// allocated once instead of doubling its way up while the shard probes.
func shardAddrs(targets int) int { return 2 * targets }

// NewCampaign creates a sharded campaign; validation happens in Run.
func NewCampaign(cfg CampaignConfig, connOf ConnFactory) *Campaign {
	return &Campaign{cfg: cfg, connOf: connOf}
}

// campaignPhaseBucketsUSec buckets the wall time of a campaign's
// once-per-run sections: the prime replay, a shard's wait for its bucket
// snapshot, and the store fold.
var campaignPhaseBucketsUSec = []int64{100, 1000, 10_000, 100_000, 1_000_000, 10_000_000}

// observePhase records the wall time since t0 on the campaign's
// registry; a campaign without telemetry records nothing.
func (c *Campaign) observePhase(name string, t0 time.Time) {
	if reg := c.cfg.Telemetry; reg != nil {
		reg.Histogram(name, campaignPhaseBucketsUSec).Observe(time.Since(t0).Microseconds())
	}
}

// startPrimer advances every fresh shard's router token-bucket state to
// its window-start instant with one shared replay pass that runs beside
// the shards instead of before them. Shard k's buckets must open exactly
// where the single serial prober's stood after probes [0, lo_k) —
// per-shard replay achieves that but costs Σ lo_k = domain·(N−1)/2 probe
// evaluations. Instead the highest-window fresh shard's connection
// replays the serial prefix once (it needs the full [0, lo_max) pass
// anyway) on the primer goroutine, and the instant the replay cursor
// crosses a lower shard's window boundary the bucket state is
// snapshotted, imported into that shard's connection, and the shard —
// parked on its ready channel until then — is released; the last shard
// is released once the replay has left prime mode. Shard 0 (window start
// 0) needs no priming and never waits. Every shard therefore opens with
// exactly the bucket levels a serial-then-parallel prime would have
// given it: its own connection is touched only before its release, the
// replay is complete up to lo_k before shard k sends, and what the
// overlapping parties do share — the vantage's plan table — shards
// already wrote concurrently. The replay rebuilds probes
// with the campaign's base instance byte and epoch — the serial prober's
// exact schedule, which is the history being reproduced — is
// uninterruptible, and pulses the campaign heartbeat so a watchdog never
// mistakes it for a stall. Resumed shards (their artifact carries the
// interrupt-instant state) need no replay, and any shard released
// un-primed (failed import, replay cut short) keeps the per-prober replay
// inside Yarrp6.Run. The returned channel closes when the primer
// goroutine exits; nil means nothing needed priming.
func (c *Campaign) startPrimer(began time.Time) <-chan struct{} {
	var cands []*shardState
	for _, ss := range c.shards {
		if ss.done || ss.prober == nil || ss.prober.cfg.resume != nil || ss.lo == 0 {
			continue
		}
		cands = append(cands, ss)
	}
	if len(cands) == 0 {
		return nil
	}
	last := cands[len(cands)-1]
	cfg := &c.cfg.Config
	p, err := perm.New(cfg.Key, c.domain)
	if err != nil {
		return nil
	}
	base := last.conn.Now() - time.Duration(last.lo)*c.gap
	codec := probe.NewCodec(last.conn, cfg.Proto, cfg.Instance)
	codec.SetEpoch(base)
	cuts := make([]uint64, len(cands)-1)
	for i, ss := range cands {
		ss.ready = make(chan struct{})
		if i < len(cuts) {
			cuts[i] = ss.lo
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		waiting := cands
		release := func() {
			c.observePhase("yarrp_shard_prime_wait_usec", began)
			close(waiting[0].ready)
			waiting = waiting[1:]
		}
		// However the replay ends, nobody stays parked: a shard released
		// without its primed mark replays its own prefix inside Run.
		defer func() {
			for len(waiting) > 0 {
				release()
			}
		}()
		pprof.Do(context.Background(), pprof.Labels("yarrp6-shard", "prime"), func(context.Context) {
			t0 := time.Now()
			last.prober.cfg.primed = replayPrefix(last.conn, p, codec, cfg, last.lo, base, c.gap, &c.beat, cuts, func(i int) {
				ss := cands[i]
				if ss.conn.ImportSimState(last.conn.ExportSimState(nil)) == nil {
					ss.prober.cfg.primed = true
				}
				release()
			})
			c.observePhase("yarrp_prime_replay_usec", t0)
		})
	}()
	return done
}

// newShard builds one prober slot over the permutation window [lo, hi),
// fresh or continuing prev: a record decoded by Resume, handed over by
// Rewind, or stopped by a fatal connection fault (restart). Only fresh
// shards get the caller's observers. Shards keep a first-sighting list
// only where more than one store is folded: a lone shard's progress
// samples count its own store instead.
func (c *Campaign) newShard(index int, lo, hi uint64, instance uint8, prev *shardState) *shardState {
	cfg := &c.cfg
	ss := &shardState{index: index, lo: lo, hi: hi, instance: instance}
	if prev != nil {
		ss.store, ss.track, ss.prog, ss.stats, ss.done, ss.err = prev.store, prev.track, prev.prog, prev.stats, prev.done, prev.err
	} else {
		ss.store = probe.NewStoreSized(cfg.RecordPaths, shardAddrs(len(cfg.Targets)))
	}
	if ss.track == nil && cfg.Shards > 1 {
		ss.track = &ifaceTimes{}
	}
	if ss.done {
		// This shard finished before the interrupt; its stored results
		// feed the merge directly.
		return ss
	}
	scfg := cfg.Config
	scfg.Instance = instance
	scfg.PermStart, scfg.PermEnd = lo, hi
	scfg.stop = &c.stop
	scfg.pulse = &c.beat
	scfg.track = ss.track
	if cfg.NewObserver != nil && prev == nil {
		scfg.Observer = cfg.NewObserver(index)
	}
	if cfg.Telemetry != nil {
		scfg.telemetry = cfg.Telemetry.NewShard()
	}
	start := time.Duration(lo) * c.gap
	if prev != nil {
		// A live rewind hands back the interrupted shard's own connection
		// — already at the captured instant, in-flight replies queued,
		// buckets current — so the prober restores neither. A restart or
		// a resume opens a fresh one at the captured instant.
		prev.rs.live = prev.conn != nil
		scfg.resume, scfg.resumeStats = prev.rs, prev.stats
		start = prev.rs.now - c.epoch
		ss.conn = prev.conn
	}
	if ss.conn == nil {
		ss.conn = c.connOf(index, start)
	}
	if index == 0 && prev == nil {
		// Shard 0's window opens at offset zero, so its connection's
		// current instant is the campaign epoch in absolute virtual
		// time — the origin every progress threshold counts from.
		c.epoch = ss.conn.Now()
	}
	if cfg.InterruptAt > 0 {
		scfg.interruptAt = c.epoch + cfg.InterruptAt
	}
	if ss.prog == nil {
		ss.prog = telemetry.NewProgress(c.epoch, c.stepDur)
	}
	scfg.progress = ss.prog
	ss.prober = New(ss.conn, scfg)
	return ss
}

// Epoch returns the campaign epoch in absolute virtual time, valid
// after Run has started the shards. Resume factories use it to position
// restarted and resumed connections.
func (c *Campaign) Epoch() time.Duration { return c.epoch }

// Interrupt requests a cooperative stop from outside the run: every
// shard stops at its next batch boundary, Run returns ErrInterrupted
// with the partial results, and the campaign stays checkpointable. Safe
// to call from any goroutine, any number of times, including before or
// after the run; called before, no shard sends a probe (a shard
// continued after a fault stops at once too). This is the supervision
// hook — a watchdog that stops seeing Beat advance calls Interrupt,
// checkpoints, and resumes on fresh connections.
func (c *Campaign) Interrupt() { c.stop.Store(true) }

// Beat returns the campaign's liveness heartbeat: a counter every
// shard prober bumps on its first and every 64th poll of its stop
// conditions (it polls per send run while probing, per iteration in the
// drain tail), and the prime replay every 1 024 probes. A running
// campaign's Beat advances many times a second in wall time; a value
// that stops moving means every shard is wedged or finished. Safe to
// read concurrently with the run.
func (c *Campaign) Beat() int64 { return c.beat.Load() }

// Proto returns the campaign's transport protocol — for resumed
// campaigns, the one pinned by the checkpoint artifact.
func (c *Campaign) Proto() uint8 { return protoOf(&c.cfg.Config) }

// protoOf is cfg's transport protocol, the zero value meaning ICMPv6.
func protoOf(cfg *Config) uint8 {
	if cfg.Proto == 0 {
		return wire.ProtoICMPv6
	}
	return cfg.Proto
}

// shardRange returns the contiguous permutation slice [lo, hi) owned by
// shard s of n over a domain of the given size.
func shardRange(domain uint64, s, n int) (lo, hi uint64) {
	lo = domain * uint64(s) / uint64(n)
	hi = domain * uint64(s+1) / uint64(n)
	return lo, hi
}

// Run executes the campaign as four steps over its shard records: open
// builds them, startPrimer starts the shared bucket replay beside them,
// probe drives them to completion or interrupt — continuing any shard a
// fatal connection fault stopped — and report folds the outcome. An
// Interrupt — before the run or during it — or the InterruptAt instant
// stops every shard at its next batch boundary: pending telemetry is
// flushed, the partial statistics are returned with ErrInterrupted and
// a nil store — MergedStore folds the partial results for callers that
// publish them — and the campaign stays checkpointable. The merge is
// deterministic: shards own disjoint permutation slices, and their
// stores are folded in shard order (equal to virtual-time order of the
// shard windows) after every goroutine has finished.
func (c *Campaign) Run() (*probe.Store, CampaignStats, error) {
	began := time.Now()
	if err := c.open(); err != nil {
		return nil, CampaignStats{}, err
	}
	primer := c.startPrimer(began)
	return c.report(c.probe(primer))
}

// open validates the configuration, fixes the campaign's schedule grid,
// and builds one shard record per configured shard — fresh, or
// continuing the records of the run this campaign resumes.
func (c *Campaign) open() error {
	cfg := &c.cfg
	cfg.defaults()
	if err := cfg.Config.check(); err != nil {
		return err
	}
	if cfg.PermStart != 0 || cfg.PermEnd != 0 {
		return fmt.Errorf("yarrp6: campaign owns the permutation split; clear PermStart/PermEnd")
	}
	if cfg.Config.Observer != nil {
		return fmt.Errorf("yarrp6: campaign shards may not share one observer; use NewObserver")
	}
	c.domain = Domain(&cfg.Config)
	if uint64(cfg.Shards) > c.domain && c.prev == nil {
		cfg.Shards = int(c.domain)
	}
	c.gap = sendGap(cfg.PPS)

	// Progress sampling: thresholds are epoch + k·step where step is a
	// whole number of permutation slots — the same virtual-time grid the
	// probe schedule lives on, so every shard crosses thresholds at
	// identical campaign-global instants whatever its window offset. A
	// continuation keeps its artifact's grid.
	if c.slots == 0 {
		c.slots = c.domain/128 + 1
	}
	c.stepDur = time.Duration(c.slots) * c.gap

	// The constructor runs serially: connection construction may mutate
	// shared vantage state (clock-group registration).
	c.shards = make([]*shardState, cfg.Shards)
	for s := range c.shards {
		lo, hi := shardRange(c.domain, s, cfg.Shards)
		var prev *shardState
		if c.prev != nil {
			prev = c.prev[s]
		}
		c.shards[s] = c.newShard(s, lo, hi, cfg.Instance+uint8(s), prev)
	}
	return nil
}

// probe runs the shards to completion or interrupt, joins the primer,
// and then handles each fatal connection fault as an interrupt: the
// failed shard's record — cursor, store, progress, first sightings,
// in-flight replies, bucket levels and the fills it could not send —
// continues on a fresh connection opened at the failure instant, the
// path Resume takes, up to maxRestarts times per shard. It returns the
// shards whose restarts ran out, captured like interrupted ones.
func (c *Campaign) probe(primer <-chan struct{}) (exhausted []*shardState) {
	failed := c.runShards(c.shards)
	if primer != nil {
		<-primer
	}
	for range maxRestarts {
		if len(failed) == 0 {
			break
		}
		for i, ss := range failed {
			failed[i] = c.restart(ss)
			c.shards[ss.index] = failed[i]
		}
		failed = c.runShards(failed)
	}
	return failed
}

// restart continues a failed shard's record on a fresh connection. The
// continuation keeps the failed prober's observer and telemetry
// instruments, whose published values already count the record's
// totals.
func (c *Campaign) restart(ss *shardState) *shardState {
	ss.conn = nil
	ns := c.newShard(ss.index, ss.lo, ss.hi, ss.instance, ss)
	y := ns.prober
	y.cfg.Observer, y.cfg.telemetry, y.tel = ss.prober.cfg.Observer, ss.prober.cfg.telemetry, ss.prober.tel
	return ns
}

// report folds the shard records into the campaign's outcome: summed
// counters, the progress series, and the merged store (a completed
// run's; an interrupted run's partial fold waits for MergedStore). A
// shard whose restarts ran out drops the fills it could not send and
// reports its remainder in Incomplete; any other unfinished shard was
// interrupted, which keeps the campaign checkpointable.
func (c *Campaign) report(exhausted []*shardState) (*probe.Store, CampaignStats, error) {
	var out CampaignStats
	for _, ss := range exhausted {
		ss.rs.fills = nil
		if ss.rs.cursor < ss.hi {
			out.Incomplete = append(out.Incomplete, PermRange{Lo: ss.rs.cursor, Hi: ss.hi})
		}
	}
	interrupted := false
	out.PerShard = make([]Stats, 0, len(c.shards))
	var end time.Duration
	starts := make([]time.Duration, 0, len(c.shards))
	var tracks []*ifaceTimes
	progs := make([]*telemetry.Progress, 0, len(c.shards))
	for _, ss := range c.shards {
		if ss.err != nil {
			out.Quarantined = append(out.Quarantined, ss.index)
		}
		interrupted = interrupted || !ss.done && !slices.Contains(exhausted, ss)
		st := ss.stats
		out.PerShard = append(out.PerShard, st)
		starts = append(starts, time.Duration(ss.lo)*c.gap)
		if ss.track != nil {
			tracks = append(tracks, ss.track)
		}
		progs = append(progs, ss.prog)
		out.add(&st)
		out.AddrTableSlots += ss.store.AddrTable().Slots()
		out.AddrTableAddrs += ss.store.AddrTable().Len()
		var t time.Duration
		if ss.rs != nil && !ss.done {
			t = ss.rs.now - c.epoch
		} else {
			t = time.Duration(ss.lo)*c.gap + st.Elapsed
		}
		if t > end {
			end = t
		}
	}
	c.keep = interrupted || c.cfg.InterruptAt > 0
	// Elapsed spans the whole virtual schedule: from the campaign epoch
	// to the last shard's drain deadline (or the interrupt instant).
	out.Elapsed = end
	// First sightings relative to the campaign epoch, sorted: the merge
	// counts interfaces by walking this list against each threshold. They
	// are read before the fold fills shard 0's store with everybody
	// else's.
	seenAt := firstSeenAt(tracks)
	for i := range seenAt {
		seenAt[i] -= c.epoch
	}
	out.Progress = telemetry.Merge(progs, seenAt, c.stepDur, end)
	var merged *probe.Store
	if interrupted {
		c.partial = c.shards
	} else {
		merged = c.mergeShards(c.shards)
	}
	if w := c.cfg.ProgressWriter; w != nil && !interrupted {
		if err := c.writeProgress(w, out, starts); err != nil {
			return merged, out, fmt.Errorf("progress stream: %w", err)
		}
	}
	if interrupted {
		return nil, out, ErrInterrupted
	}
	return merged, out, nil
}

// mergeShards folds the given shard stores with a parallel tree merge:
// pairwise probe.Store.Merge on worker goroutines, halving the list
// each level, so merge latency is O(log N) pairwise merges instead of a
// serial O(N) fold. Merge is commutative and associative (property
// tests in internal/probe pin this), and shards own disjoint
// permutation slices, so the tree shape cannot change the result;
// pairing adjacent shards additionally keeps the fold in virtual-time
// order, preserving the documented first-answer rule even for
// overlapping ad-hoc inputs. A checkpointable run merges clones so
// Checkpoint can still serialize the per-shard stores.
func (c *Campaign) mergeShards(all []*shardState) *probe.Store {
	defer c.observePhase("yarrp_fold_usec", time.Now())
	stores := make([]*probe.Store, len(all))
	for i, ss := range all {
		stores[i] = ss.store
	}
	if c.keep {
		for i := range stores {
			clone := probe.NewStoreSized(c.cfg.RecordPaths, stores[i].AddrTable().Len())
			clone.Merge(stores[i])
			stores[i] = clone
		}
	}
	return mergeStoreTree(stores)
}

// MergedStore folds an interrupted run's partial results — every shard's
// store, in shard order — into one store. The
// fold is paid only by callers that publish a partial view; a
// checkpoint-and-continue cycle never asks. The campaign stays
// checkpointable: the fold works on clones. It returns nil when the run
// was not interrupted (Run returned the merged store itself).
func (c *Campaign) MergedStore() *probe.Store {
	if c.partial == nil {
		return nil
	}
	return c.mergeShards(c.partial)
}

// runShards drives the given probers concurrently, one goroutine per
// shard, recording each outcome on its shardState, and returns the
// shards whose runs failed fatally. Done shards (resumed completed ones)
// are skipped.
func (c *Campaign) runShards(shards []*shardState) (failed []*shardState) {
	var wg sync.WaitGroup
	batchLabel := strconv.Itoa(c.cfg.Batch)
	fatal := make([]bool, len(shards))
	for i, ss := range shards {
		if ss.done || ss.prober == nil {
			continue
		}
		wg.Add(1)
		go func(i int, ss *shardState) {
			defer wg.Done()
			if ss.ready != nil {
				<-ss.ready // parked until the primer hands over the window-start buckets
			}
			// Label the shard goroutine so -cpuprofile output from the
			// drivers attributes campaign time to (shard, batch) without
			// any manual goroutine archaeology in pprof.
			pprof.Do(context.Background(), pprof.Labels("yarrp6-shard", strconv.Itoa(ss.index), "yarrp6-batch", batchLabel), func(context.Context) {
				stats, err := ss.prober.Run(ss.store)
				ss.stats = stats
				switch {
				case err == nil:
					ss.done = true
				case errors.Is(err, ErrInterrupted):
					ss.rs = ss.prober.rs
				default:
					ss.err, ss.rs, fatal[i] = err, ss.prober.rs, true
				}
			})
		}(i, ss)
	}
	wg.Wait()
	for i, ss := range shards {
		if fatal[i] {
			failed = append(failed, ss)
		}
	}
	return failed
}

// writeProgress streams the merged progress series as NDJSON: sample
// records, optional per-shard window records, and the summary record.
// starts holds each PerShard entry's window-open instant.
func (c *Campaign) writeProgress(w io.Writer, out CampaignStats, starts []time.Duration) error {
	if err := telemetry.WritePoints(w, out.Progress); err != nil {
		return err
	}
	if c.cfg.ProgressPerShard {
		lines := make([]telemetry.ShardLine, len(out.PerShard))
		for s, st := range out.PerShard {
			lines[s] = telemetry.ShardLine{
				Shard:   s,
				Start:   starts[s],
				Elapsed: st.Elapsed,
				Lag:     out.Elapsed - (starts[s] + st.Elapsed),
				Probes:  st.ProbesSent,
				Fills:   st.Fills,
				Replies: st.Replies,
			}
		}
		if err := telemetry.WriteShardLines(w, lines); err != nil {
			return err
		}
	}
	if len(out.Progress) > 0 {
		return telemetry.WriteSummary(w, out.Progress[len(out.Progress)-1])
	}
	return nil
}

// mergeStoreTree folds the shard stores pairwise on goroutines until
// one remains, consuming the slice. Level k merges shard blocks of
// size 2^k into their left neighbors, so the surviving store is
// stores[0] with every other shard folded in, in shard order.
func mergeStoreTree(stores []*probe.Store) *probe.Store {
	for len(stores) > 1 {
		pairs := len(stores) / 2
		var wg sync.WaitGroup
		for i := 0; i < pairs; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				stores[2*i].Merge(stores[2*i+1])
			}(i)
		}
		wg.Wait()
		next := stores[:0]
		for i := 0; i < len(stores); i += 2 {
			next = append(next, stores[i])
		}
		stores = next
	}
	return stores[0]
}

// ifaceSeen is one interface address and the virtual instant a shard
// first saw it at.
type ifaceSeen struct {
	addr netip.Addr
	at   time.Duration
}

// ifaceTimes is a shard's first-seen list behind the progress interface
// counts: the virtual instant of every interface address's first
// sighting, appended by the prober's fold goroutine when the shard's
// store reports the address as new — the store is the one set of known
// interfaces, so the list holds each of its addresses exactly once.
type ifaceTimes struct {
	// seen is ascending by address up to nSorted — the order checkpoints
	// serialize — and in arrival order beyond, so a checkpoint sorts only
	// what the shard discovered since the previous one.
	seen    []ifaceSeen
	nSorted int
}

// add records a's first sighting; the caller vouches that a is new.
func (o *ifaceTimes) add(a netip.Addr, at time.Duration) {
	o.seen = sorted.Append(o.seen, ifaceSeen{a, at})
}

// sortedSeen returns the first sightings ascending by address.
func (o *ifaceTimes) sortedSeen() []ifaceSeen {
	sorted.Tail(o.seen, o.nSorted, func(a, b ifaceSeen) int { return a.addr.Compare(b.addr) })
	o.nSorted = len(o.seen)
	return o.seen
}

// firstSeenAt folds the per-shard first sightings into the global
// first-seen instants — minimized across shards, one entry per distinct
// interface address — sorted ascending; the progress merge counts
// interfaces by walking this list.
//
// Each list is sorted by address (the order checkpoints want anyway), so
// a k-way merge meets every address's sightings side by side: the fold
// needs no set, only the output.
func firstSeenAt(tracks []*ifaceTimes) []time.Duration {
	lists := make([][]ifaceSeen, 0, len(tracks))
	n := 0
	for _, tr := range tracks {
		if seen := tr.sortedSeen(); len(seen) > 0 {
			lists = append(lists, seen)
			n += len(seen)
		}
	}
	seenAt := make([]time.Duration, 0, n)
	for len(lists) > 0 {
		// The smallest head address, and its earliest sighting across
		// every list that holds it; those lists advance past it.
		low := lists[0][0]
		for _, l := range lists[1:] {
			if c := l[0].addr.Compare(low.addr); c < 0 || c == 0 && l[0].at < low.at {
				low = l[0]
			}
		}
		live := lists[:0]
		for _, l := range lists {
			if l[0].addr == low.addr {
				l = l[1:]
			}
			if len(l) > 0 {
				live = append(live, l)
			}
		}
		lists = live
		seenAt = append(seenAt, low.at)
	}
	slices.Sort(seenAt)
	return seenAt
}
