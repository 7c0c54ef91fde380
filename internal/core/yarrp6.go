// Package core implements Yarrp6, the paper's primary contribution: a
// stateless, randomized, high-speed IPv6 topology prober (Section 4).
//
// Yarrp6 walks the cross product of targets and TTLs in a keyed
// pseudorandom permutation so that no router or path receives probe
// bursts — the property that defeats mandated ICMPv6 rate limiting. All
// per-probe state travels inside the probe itself (Figure 4; see
// probe.Codec for the layout) and is recovered from the ICMPv6 error
// quotation, so the prober retains no per-destination state: its memory
// is O(max TTL), never O(targets), and a campaign can be resumed from a
// permutation counter alone.
package core

import (
	"errors"
	"fmt"
	"math"
	"net/netip"
	"sync/atomic"
	"time"

	"beholder/internal/perm"
	"beholder/internal/probe"
	"beholder/internal/telemetry"
	"beholder/internal/wire"
)

// Magic re-exports the probe payload magic for callers inspecting wire
// traffic.
const Magic = probe.Magic

// PayloadLen re-exports the probe payload length (Figure 4).
const PayloadLen = probe.PayloadLen

// Config parameterizes a Yarrp6 campaign.
type Config struct {
	// Targets to probe. The slice is not retained beyond Run.
	Targets []netip.Addr
	// MaxTTL closes the randomized TTL range minTTL..MaxTTL. Default 16
	// (the paper's tuned maximum, Table 6).
	MaxTTL uint8
	// PPS is the probing rate in packets per second. Default DefaultPPS.
	PPS float64
	// Proto selects the probe transport: wire.ProtoICMPv6 (default),
	// wire.ProtoUDP, or wire.ProtoTCP.
	Proto uint8
	// Instance distinguishes concurrent prober instances.
	Instance uint8
	// Key seeds the probe-order permutation; campaigns with equal keys
	// and targets probe in identical order.
	Key uint64
	// PermStart and PermEnd bound the walked slice of the permutation
	// domain [PermStart, PermEnd): the prober emits permutation indices
	// PermStart, PermStart+1, …, PermEnd-1. PermEnd == 0 means the full
	// domain. Campaign shards each walk one contiguous slice; a
	// checkpointed campaign resumes from its recorded counter the same
	// way. The slice selects which probes are sent, not when: pacing
	// still counts from the connection's current time.
	PermStart, PermEnd uint64
	// Batch is the send-batch size: how many probes are built and
	// handed to the connection per SendBatch call. Batching changes only
	// how probes are processed, never the virtual schedule — every probe
	// departs at the same instant, every reply is drained at the same
	// instant, and all results are byte-identical at any batch size.
	// Zero selects DefaultBatch; values below one mean one probe per
	// call, and so does the neighborhood heuristic, whose skip decisions
	// are taken per probe instant.
	Batch int
	// Fill enables fill mode: a response from hop h >= MaxTTL triggers
	// an immediate probe at h+1, below fillLimit (Section 4.1).
	Fill bool
	// NeighborhoodWindow, when nonzero, enables the local-neighborhood
	// heuristic (Section 4.2): for TTLs at or below NeighborhoodTTL, if
	// no new interface address has been discovered at that TTL within
	// the window, further probes at that TTL are skipped.
	NeighborhoodWindow time.Duration
	NeighborhoodTTL    uint8
	// Observer, when non-nil, receives every stored reply in arrival
	// order. It runs on the run's fold goroutine, right after the reply's
	// store fold, and Run returns only once it has seen every reply. The
	// service attaches none — a running campaign's live view is its
	// progress series; the benchmark module's graph-layer timing does.
	Observer probe.Observer

	// telemetry, when set, is this prober's shard-local metric sink.
	// Counters derived from Stats fold in at progress-sample cadence and
	// run end (the delta-flush discipline); only the distribution metrics
	// (RTT, batch fill, drain gaps) observe per event, through local
	// non-atomic views. Campaign sets it; nil costs nothing on the hot
	// path beyond a few predicted nil checks per batch.
	telemetry *telemetry.Shard
	// progress, when set, records deterministic virtual-time progress
	// samples: the prober caps batched send runs at the recorder's
	// thresholds and records whenever its clock crosses one, plus pinning
	// samples after drain-tail activity and at run boundaries. Campaign
	// sets it and merges the per-shard series.
	progress *telemetry.Progress

	// interruptAt, when nonzero, stops the run the moment the clock
	// reaches that absolute virtual instant: Run captures its complete
	// state (Yarrp6.rs) and returns ErrInterrupted. Because batched
	// send runs are capped at the instant and early-stop drains never
	// advance the clock, the interrupt lands exactly there — nothing is
	// sent at or past it. Campaign sets it for checkpointing.
	interruptAt time.Duration
	// stop, when non-nil and set, requests an interrupt at the next
	// batch boundary — the Interrupt path. The prober polls it
	// between send runs only, so a clean stop costs one predicted load
	// per batch.
	stop *atomic.Bool
	// pulse, when non-nil, is the liveness heartbeat supervision
	// watchdogs read: the prober bumps it on every pulseEvery-th poll of
	// its stop conditions. A prober that stops beating is wedged (or its
	// connection is blocked), whatever its virtual clock says.
	pulse *atomic.Int64
	// track, when non-nil, receives the first-seen instant of every
	// interface the store reports as new — the shard's contribution to the
	// progress interface counts when the campaign folds more than one
	// store. Without it the progress samples carry the store's own count.
	track *ifaceTimes
	// resume, when non-nil, continues a previous interrupted or failed
	// run from its capture; resumeStats carries that run's counters, and
	// its progress samples are already in progress. Campaign sets them
	// when it continues a shard record (Resume, Rewind or a restart after
	// a fatal connection fault).
	resume      *shardResume
	resumeStats Stats
	// primed records that the campaign already advanced this shard's
	// rate-limiter state to the window-start instant (the shared replay
	// pass with snapshot handoff), so Run must not replay the serial
	// prefix again.
	primed bool
}

// The probing shape every campaign shares (Section 4.1): TTLs from
// minTTL, fill mode up to hop fillLimit, and a drain that collects
// replies for drainTimeout after the last probe.
const (
	minTTL       = 1
	fillLimit    = 32
	drainTimeout = 2 * time.Second
)

// defaults fills the unset tuning fields with the engine's values. It
// needs no targets, so an adaptive campaign, whose source supplies them
// epoch by epoch, applies it to its template too.
func (c *Config) defaults() {
	if c.MaxTTL == 0 {
		c.MaxTTL = 16
	}
	if c.PPS <= 0 {
		c.PPS = DefaultPPS
	}
	if c.Proto == 0 {
		c.Proto = wire.ProtoICMPv6
	}
	if c.Batch == 0 {
		c.Batch = DefaultBatch
	}
	if c.Batch < 1 {
		c.Batch = 1
	}
	if c.NeighborhoodWindow > 0 && c.NeighborhoodTTL == 0 {
		c.NeighborhoodTTL = 3
	}
}

// setDefaults applies the defaults and refuses what no run can probe.
func (c *Config) setDefaults() error {
	c.defaults()
	return c.check()
}

// check refuses a defaulted configuration no run can probe.
func (c *Config) check() error {
	if len(c.Targets) == 0 {
		return fmt.Errorf("yarrp6: no targets")
	}
	if c.Proto != wire.ProtoICMPv6 && c.Proto != wire.ProtoUDP && c.Proto != wire.ProtoTCP {
		return fmt.Errorf("yarrp6: unsupported transport %d", c.Proto)
	}
	// The whole schedule — every permutation slot, every fill the targets
	// can add, then the drain tail — must fit the virtual clock, with as
	// much again to spare for a nonzero starting instant. Past it the send
	// loop's pacing arithmetic overflows and the prober spins in place.
	slots := float64(Domain(c))
	if c.Fill && c.MaxTTL < fillLimit {
		slots += float64(len(c.Targets)) * float64(fillLimit-c.MaxTTL)
	}
	if slots*float64(time.Second)/c.PPS+float64(drainTimeout) > math.MaxInt64/2 {
		return fmt.Errorf("yarrp6: at %g pps the schedule outruns the virtual clock", c.PPS)
	}
	if sendGap(c.PPS) <= 0 {
		// A zero gap parks the clock: the drain tail would sleep zero
		// nanoseconds forever, short of its deadline.
		return fmt.Errorf("yarrp6: rate %g pps is beyond the clock's nanosecond resolution (at most 1e9)", c.PPS)
	}
	return nil
}

// Validate reports the configuration error a run would fail with,
// without applying defaults to c — the admission-time check.
func (c Config) Validate() error { return c.setDefaults() }

// sendGap is the inter-probe interval at pps probes per second.
func sendGap(pps float64) time.Duration { return time.Duration(float64(time.Second) / pps) }

// Domain returns the size of the (target × TTL) permutation domain of a
// configuration whose defaults have been applied.
func Domain(c *Config) uint64 {
	return uint64(len(c.Targets)) * (uint64(c.MaxTTL-minTTL) + 1)
}

// Stats reports a campaign's send-side and recovery counters.
type Stats struct {
	ProbesSent int64
	Fills      int64
	Skipped    int64 // suppressed by the neighborhood heuristic
	Replies    int64
	NotMine    int64 // replies failing authentication
	Retries    int64 // transient send failures retried after backoff
	Elapsed    time.Duration
}

// statCounter is one Stats counter field and its telemetry name.
type statCounter struct {
	n    *int64
	name string
}

// statCounters is how many counters Stats.counters lists.
const statCounters = 6

// counters lists s's counter fields in declaration order, each with its
// telemetry counter name: the one list add, the checkpoint codec and
// the telemetry flush walk. Elapsed, a span, stays apart.
func (s *Stats) counters() [statCounters]statCounter {
	return [...]statCounter{
		{&s.ProbesSent, "yarrp_probes_sent_total"},
		{&s.Fills, "yarrp_fill_probes_total"},
		{&s.Skipped, "yarrp_skipped_total"},
		{&s.Replies, "yarrp_replies_total"},
		{&s.NotMine, "yarrp_replies_not_mine_total"},
		{&s.Retries, "yarrp_retries_total"},
	}
}

// add sums o's counters into s; Elapsed, a span, is the caller's.
func (s *Stats) add(o *Stats) {
	from := o.counters()
	for i, c := range s.counters() {
		*c.n += *from[i].n
	}
}

// ErrInterrupted reports that a run stopped at its interrupt instant or
// on an Interrupt request. The prober's complete state was captured
// first, so the run can be checkpointed and continued.
var ErrInterrupted = errors.New("yarrp6: interrupted")

// pulseEvery is how many stop polls pass between a prober's heartbeat
// pulses (cf. replayPulseEvery): a send run is a handful of probes, so
// even a connection throttled to milliseconds per run beats several
// times a second.
const pulseEvery = 64

// retryMax bounds consecutive transient send failures: each failure
// backs off one send slot and rebuilds the unsent probes for their
// shifted instants; one more failure past the bound fails the shard.
const retryMax = 3

// lostFill is a fill probe a prober failed to send before it died. It
// was due at the failure instant, where the continued run opens and
// sends it first.
type lostFill struct {
	target netip.Addr
	ttl    uint8
}

// pendingReply is one undelivered in-flight reply captured at an
// interrupt, keyed by its virtual delivery instant.
type pendingReply struct {
	at   time.Duration
	data []byte
}

// shardResume is the prober's own capture at an interrupt (or fatal
// failure): what, beside the run's returned Stats, its progress recorder
// and its store, is needed to continue the run so that interrupt plus
// resume reproduces the uninterrupted schedule byte for byte. The
// permutation cursor and clock say what to send and when, the codec
// epoch keeps probe timestamps on the original series, and the pending
// replies restore the connection's in-flight delivery queue.
type shardResume struct {
	cursor        uint64        // next unsent permutation index
	epoch         time.Duration // codec epoch (absolute virtual time)
	now           time.Duration // clock at capture (absolute virtual time)
	drainDeadline time.Duration // nonzero when captured inside the drain tail
	kindCount     [probe.KindOther + 1]int64
	lastNew       [256]time.Duration
	pending       []pendingReply
	// fills are the fills a failed prober could not send (never set by
	// an interrupt, and dropped when the campaign gives the shard up, so
	// never in a checkpoint).
	fills []lostFill
	// slab backs every pending reply's data: one copy per capture, not
	// one per reply.
	slab []byte
	// simState is the connection's exported simulator-state blob (router
	// token-bucket levels) at the capture instant. Restoring it makes a
	// resumed run exact even when a rate limiter was saturated across the
	// interrupt.
	simState []byte
	// live marks an in-process continuation on the very connection the
	// state was captured from (Campaign.Rewind): the pending replies are
	// still queued and the simulator state is still current, so the
	// restore skips re-injection and import — both would be redundant,
	// and injecting would duplicate the in-flight replies.
	live bool
}

// DefaultPPS is the probing rate used when Config.PPS is unset: the
// paper's campaign rate.
const DefaultPPS = 1000

// DefaultBatch is the send-batch size used when Config.Batch is zero:
// probes are built and routed DefaultBatch at a time through the
// connection, amortizing per-probe dispatch without changing the virtual
// schedule.
const DefaultBatch = 64

// probeStride is the per-slot width of the batched send ring; the
// module's own probes are 60-72 bytes.
const probeStride = 128

// recvBatch bounds how many replies one RecvBatch call drains.
const recvBatch = 32

// Yarrp6 is a configured prober bound to a vantage connection.
type Yarrp6 struct {
	conn  probe.Conn
	cfg   Config
	codec *probe.Codec

	// pkt holds the fill probes, which go out one at a time.
	pkt []byte

	// Send-pipeline state: idx is the permutation index buffer
	// NextBatch fills, tgts the batch's targets gathered from it, ring
	// backs one pre-built packet per batch slot, pkts aliases the built
	// packets, and rbatch/rsizes receive drained replies recvBatch at a
	// time. All are allocated once per Run.
	idx    []uint64
	tgts   []netip.Addr
	ring   []byte
	pkts   [][]byte
	rbatch []byte
	rsizes []int

	stats Stats

	// kindCount tallies stored replies by kind. One unconditional array
	// increment per reply — cheaper than guarding it — feeding both the
	// progress samples and the telemetry by-kind counters.
	kindCount [probe.KindOther + 1]int64

	// tel holds the resolved telemetry instruments; tel.sh == nil means
	// telemetry is off and every hook is a dead predicted branch.
	tel telSink

	// prog / nextSample drive virtual-time progress sampling; prog == nil
	// means off.
	prog       *telemetry.Progress
	nextSample time.Duration

	// The run's fixed schedule: gap is the inter-probe interval, end the
	// window's last permutation index plus one.
	gap time.Duration
	end uint64

	// Neighborhood heuristic state: bounded by the TTL range, not by
	// targets — the prober stays O(1) in destinations. The fold goroutine
	// writes it; the prober reads it only after fold.sync.
	lastNew [256]time.Duration

	// polls counts stop polls, pacing the heartbeat (see stopNow).
	polls uint32

	// lost are the fills this run could not send, and fillErr the
	// failure that lost the first: the run fails with it once the drain
	// that lost it is done.
	lost    []lostFill
	fillErr error

	// rs is the state captured when a run is interrupted or fails; nil
	// after a clean completion. Campaign serializes it into checkpoint
	// artifacts and continues a failed shard from it.
	rs *shardResume

	// fold carries parsed replies and progress samples to the run's fold
	// goroutine, which owns the store until Run returns (fold.go); nil
	// outside Run.
	fold *foldPipe
}

// kindCounters names the telemetry counter of each reply kind that has
// one, indexed by kind; KindOther has none.
var kindCounters = [probe.KindOther]string{
	probe.KindTimeExceeded: "yarrp_replies_time_exceeded_total",
	probe.KindDestUnreach:  "yarrp_replies_dest_unreach_total",
	probe.KindEchoReply:    "yarrp_replies_echo_total",
	probe.KindTCPRst:       "yarrp_replies_tcp_rst_total",
}

// telSink bundles the prober's telemetry instruments plus the
// already-published values of the counters mirrored from Stats and
// kindCount, so flushes add only the delta since the previous flush.
type telSink struct {
	sh *telemetry.Shard

	stats                    [statCounters]*telemetry.Local // like Stats.counters
	kinds                    [len(kindCounters)]*telemetry.Local
	earlyStops, drainFF      *telemetry.Local
	rtt, batchFill, drainGap *telemetry.LocalHist

	pub     [statCounters]int64 // published Stats counter values
	pubKind [probe.KindOther + 1]int64
}

// initTelemetry resolves the instrument set against the configured shard.
func (y *Yarrp6) initTelemetry() {
	sh := y.cfg.telemetry
	if sh != nil && y.tel.sh == sh {
		// A restarted shard's prober continues its predecessor's
		// instruments, whose published values already count the totals
		// the run resumes from.
		return
	}
	y.tel = telSink{}
	if sh == nil {
		return
	}
	y.tel.sh = sh
	for i, c := range y.stats.counters() {
		y.tel.stats[i] = sh.Counter(c.name)
	}
	for k, name := range kindCounters {
		y.tel.kinds[k] = sh.Counter(name)
	}
	y.tel.earlyStops = sh.Counter("yarrp_batch_early_stops_total")
	y.tel.drainFF = sh.Counter("yarrp_drain_fastforwards_total")
	y.tel.rtt = sh.Histogram("yarrp_rtt_usec", telemetry.RTTBucketsUSec)
	y.tel.batchFill = sh.Histogram("yarrp_batch_fill", telemetry.BatchFillBuckets)
	y.tel.drainGap = sh.Histogram("yarrp_drain_gap_slots", telemetry.DrainGapBuckets)
}

// telFlush publishes the counters mirrored from Stats/kindCount as deltas
// since the previous flush, then folds every local into the shared
// registry. Called at progress-sample crossings and at run end — never
// per event.
func (y *Yarrp6) telFlush() {
	t := &y.tel
	if t.sh == nil {
		return
	}
	for i, c := range y.stats.counters() {
		t.stats[i].Add(*c.n - t.pub[i])
		t.pub[i] = *c.n
	}
	for k, l := range t.kinds {
		l.Add(y.kindCount[k] - t.pubKind[k])
	}
	t.pubKind = y.kindCount
	t.sh.Flush()
}

// recordSample queues the current counters for the progress recorder,
// stamped at the virtual instant at. The fold goroutine records the
// sample once it has folded every reply queued before it, adding the
// store's interface count for a shard without a first-sighting list.
func (y *Yarrp6) recordSample(at time.Duration) {
	s := telemetry.Sample{
		At:           at,
		Probes:       y.stats.ProbesSent,
		Fills:        y.stats.Fills,
		Replies:      y.stats.Replies,
		TimeExceeded: y.kindCount[probe.KindTimeExceeded],
		EchoReplies:  y.kindCount[probe.KindEchoReply],
		DestUnreach:  y.kindCount[probe.KindDestUnreach],
		TCPRsts:      y.kindCount[probe.KindTCPRst],
	}
	y.fold.mark(s)
}

// stopNow reports whether the run must interrupt before the next send:
// the clock has reached the interrupt instant, or an Interrupt was
// requested. Both checks are dead predicted branches when the features
// are off.
func (y *Yarrp6) stopNow() bool {
	if y.cfg.pulse != nil {
		// The stop poll is the single touchpoint of every loop — per send
		// run while probing, per iteration in the drain tail — and at
		// campaign rates that is every other probe, from every shard,
		// onto one cache line. Counting polls shard-locally and beating
		// on the first and every pulseEvery-th keeps the line quiet.
		if y.polls%pulseEvery == 0 {
			y.cfg.pulse.Add(1)
		}
		y.polls++
	}
	if y.cfg.interruptAt > 0 && y.conn.Now() >= y.cfg.interruptAt {
		return true
	}
	return y.cfg.stop != nil && y.cfg.stop.Load()
}

// capture snapshots the run state at an interrupt, fatal send error, or
// drain-tail stop. cursor is the next unsent permutation index;
// drainDeadline is nonzero only when the capture happened inside the
// drain tail (the window itself is complete). The fold catches up first,
// so the store, the progress series and lastNew are those of the capture
// instant, and pending telemetry is flushed so the registry is exact
// there too.
func (y *Yarrp6) capture(cursor uint64, drainDeadline time.Duration) {
	y.fold.sync()
	// Fold the live authentication-failure counter into the returned
	// partial stats the same way a completed run would.
	y.stats.NotMine = y.codec.NotMine
	rs := &shardResume{
		cursor:        cursor,
		epoch:         y.codec.Epoch(),
		now:           y.conn.Now(),
		drainDeadline: drainDeadline,
		kindCount:     y.kindCount,
		lastNew:       y.lastNew,
		fills:         y.lost,
	}
	if prev := y.cfg.resume; prev != nil && prev.live {
		// The capture this run continued from in-process is spent: its
		// artifact holds a copy, and the connection never imported it.
		// This capture takes over its memory.
		rs.pending, rs.slab, rs.simState = prev.pending[:0], prev.slab[:0], prev.simState[:0]
	}
	y.conn.ExportPending(func(at time.Duration, data []byte) {
		// Until the slab stops growing, data only lends its length.
		rs.slab = append(rs.slab, data...)
		rs.pending = append(rs.pending, pendingReply{at: at, data: data})
	})
	off := 0
	for i := range rs.pending {
		n := len(rs.pending[i].data)
		rs.pending[i].data = rs.slab[off : off+n : off+n]
		off += n
	}
	rs.simState = y.conn.ExportSimState(rs.simState)
	y.telFlush()
	y.rs = rs
}

// maybeSample records a progress sample when the clock has crossed the
// next threshold. Main-loop clock advances are whole gap multiples and
// thresholds sit on the same grid, so the crossing lands exactly on the
// threshold instant. The crossing also folds pending telemetry into the
// shared registry (~130 times per campaign): the live endpoint stays
// fresh without shared-atomic traffic on the per-probe path.
func (y *Yarrp6) maybeSample() {
	if y.prog == nil {
		return
	}
	if now := y.conn.Now(); now >= y.nextSample {
		y.recordSample(now)
		y.nextSample = y.prog.NextThreshold(now)
		y.telFlush()
	}
}

// New creates a prober. The configuration is validated at Run.
func New(conn probe.Conn, cfg Config) *Yarrp6 {
	return &Yarrp6{conn: conn, cfg: cfg, pkt: make([]byte, 128)}
}

// initCodec validates configuration and anchors the codec epoch at the
// current time; Run calls it, and tests exercising probe construction
// directly call it too.
func (y *Yarrp6) initCodec() error {
	if err := y.cfg.setDefaults(); err != nil {
		return err
	}
	y.codec = probe.NewCodec(y.conn, y.cfg.Proto, y.cfg.Instance)
	return nil
}

// Run executes the campaign, folding every recovered reply into store:
// restore a previous run's capture or prime the window's rate-limiter
// history, send the window, drain the tail. While it sends and drains,
// the store belongs to the run's fold goroutine (fold.go); Run returns
// once every reply is folded and that goroutine has exited.
//
// There is one send loop, and it is batched: permutation indices are
// drawn Batch at a time, the probes for a batch are pre-built into a
// packet ring — each stamped for its own departure instant — and the
// whole batch is handed to the connection in one SendBatch
// call, which paces the packets internally and stops early the moment a
// reply becomes deliverable so the drain happens at exactly the instant
// a per-probe loop would drain. Batching therefore changes dispatch
// counts only; the virtual schedule — send times, drain times, fill
// times, progress samples — is identical at every batch size, one
// included.
func (y *Yarrp6) Run(store *probe.Store) (Stats, error) {
	if err := y.initCodec(); err != nil {
		return Stats{}, err
	}
	cfg := &y.cfg
	y.kindCount = [probe.KindOther + 1]int64{}
	y.rs = nil
	y.initTelemetry()

	domain := Domain(cfg)
	p, err := perm.New(cfg.Key, domain)
	if err != nil {
		return Stats{}, fmt.Errorf("yarrp6: %w", err)
	}
	start, end := cfg.PermStart, cfg.PermEnd
	if end == 0 || end > domain {
		end = domain
	}
	if start > end {
		return Stats{}, fmt.Errorf("yarrp6: PermStart %d beyond PermEnd %d", start, end)
	}
	y.gap, y.end = sendGap(cfg.PPS), end
	y.stats = Stats{}
	y.lost, y.fillErr = nil, nil

	// Progress sampling thresholds live on the same virtual-time grid as
	// the probe schedule (the campaign's step is a whole multiple of gap),
	// so main-loop crossings land exactly on threshold instants.
	y.prog = cfg.progress
	if y.prog != nil {
		y.nextSample = y.prog.NextThreshold(y.conn.Now())
	}

	cursor, drainDeadline := start, time.Duration(0)
	if rs := cfg.resume; rs != nil {
		if err := y.restore(rs); err != nil {
			// Nothing ran: the capture this run continued still stands.
			y.rs = rs
			return y.stats, err
		}
		cursor, drainDeadline = rs.cursor, rs.drainDeadline
	} else if start > 0 && !cfg.primed {
		// Window-sliced run (campaign shard): advance the connection's
		// rate-limiter state to the window-start instant by replaying the
		// serial schedule that precedes the window, so the union of shard
		// windows reproduces the serial run's reply counters even past
		// ICMPv6 rate-limit saturation. Campaign
		// shards normally arrive already primed — the group does one
		// shared replay pass and hands each clone a bucket snapshot —
		// leaving this per-prober replay to direct windowed Run calls and
		// shards whose snapshot import failed.
		replayPrefix(y.conn, p, y.codec, cfg, start, y.conn.Now()-time.Duration(start)*y.gap, y.gap, cfg.pulse, nil, nil)
	}

	// Batched sends may defer shared-counter updates; publish exact
	// totals on every exit path so post-run readers see them.
	defer y.conn.FlushStats()
	y.startFold(store)
	defer y.stopFold()
	if y.sendCarried(); y.fillErr != nil {
		return y.stats, y.fail(cursor, drainDeadline, y.fillErr)
	}
	if err := y.send(p.Resume(cursor)); err != nil {
		return y.stats, err
	}
	return y.drain(drainDeadline)
}

// restore continues an interrupted run exactly where rs captured it. The
// iterator starts at the captured cursor, the codec epoch goes back to
// the original run's so probe timestamps continue the same series, the
// counters continue from resumeStats, and the captured in-flight replies
// are re-queued at their original delivery instants. The connection's
// clock is the caller's job: it must open at the captured instant.
func (y *Yarrp6) restore(rs *shardResume) error {
	y.stats = y.cfg.resumeStats
	y.stats.Elapsed = 0
	y.codec.SetEpoch(rs.epoch)
	y.codec.NotMine = y.stats.NotMine
	y.kindCount = rs.kindCount
	y.lastNew = rs.lastNew
	if rs.live {
		// The connection still holds its queue and its buckets.
		return nil
	}
	for _, pr := range rs.pending {
		y.conn.InjectReply(pr.at, pr.data)
	}
	if len(rs.simState) > 0 {
		if err := y.conn.ImportSimState(rs.simState); err != nil {
			return fmt.Errorf("yarrp6: sim state: %w", err)
		}
	}
	return nil
}

// drain collects stragglers after the window's last probe and closes
// the run. Stepping by the send gap keeps the drain schedule on the same
// virtual instants a longer-running prober would drain at, so a campaign
// shard processes its tail replies — and sends any fill probes they
// trigger — at exactly the times the unsharded prober would have. The
// connection exposes its delivery queue, so stretches of virtual time
// where nothing can arrive are crossed in one sleep: the clock lands on
// the same gap-multiple instants, and every reply is still processed at
// the first such instant at or past its delivery time — the stepped
// loop's schedule exactly, minus the empty iterations. A nonzero
// deadline is a resumed tail's: the original run's deadline stands
// instead of extending the tail from the resume instant.
func (y *Yarrp6) drain(deadline time.Duration) (Stats, error) {
	if y.prog != nil {
		// Pin the window-exit state: the shard may sit idle in its drain
		// tail across many thresholds, and the merge needs a sample at or
		// before each of them carrying the completed-window counters.
		y.recordSample(y.conn.Now())
	}
	if deadline == 0 {
		deadline = y.conn.Now() + drainTimeout
	}
	gap := y.gap
	for {
		now := y.conn.Now()
		if now >= deadline {
			break
		}
		if y.stopNow() {
			// The window is complete; capture with the cursor at the
			// window end and pin the drain deadline so a resumed run
			// finishes the same tail. Interrupt instants inside a
			// fast-forwarded empty stretch take effect at the next drain
			// instant — nothing observable happens in between.
			y.capture(y.end, deadline)
			return y.stats, ErrInterrupted
		}
		// Whole gaps to the deadline, or to the earliest queued delivery
		// when that comes first; a reply already due is one step away.
		steps := int64((deadline - now + gap - 1) / gap)
		if at, ok := y.conn.NextDeliveryAt(); ok {
			steps = min(steps, max(1, int64((at-now+gap-1)/gap)))
		}
		if y.tel.sh != nil {
			y.tel.drainGap.Observe(steps)
			if steps > 1 {
				y.tel.drainFF.Inc()
			}
		}
		y.conn.Sleep(time.Duration(steps) * gap)
		y.drainAll()
		if y.fillErr != nil {
			return y.stats, y.fail(y.end, deadline, y.fillErr)
		}
		if y.prog != nil {
			// Pin tail activity at its drain instant so the merge
			// attributes it to the right threshold; Record drops the
			// sample when the drain changed nothing.
			y.recordSample(y.conn.Now())
		}
	}
	y.stats.Elapsed = y.conn.Now() - y.codec.Epoch()
	y.stats.NotMine = y.codec.NotMine
	if y.prog != nil {
		y.recordSample(y.conn.Now())
	}
	y.telFlush()
	return y.stats, nil
}

// send is the send loop — the only one: it walks the permutation window
// [it.Pos(), end), Batch probes per SendBatch call.
func (y *Yarrp6) send(it *perm.Iterator) error {
	cfg := &y.cfg
	gap, end := y.gap, y.end
	batch := cfg.Batch
	if cfg.NeighborhoodWindow > 0 {
		// The neighborhood heuristic's skip decision must be taken at
		// each probe's own instant against drain-fresh state.
		batch = 1
	}
	if w := end - it.Pos(); uint64(batch) > w {
		// No batch outgrows the window, so neither do the send buffers.
		batch = int(w)
	}
	if len(y.idx) < batch {
		y.idx = make([]uint64, batch)
		y.tgts = make([]netip.Addr, batch)
		y.ring = make([]byte, batch*probeStride)
		y.pkts = make([][]byte, batch)
	}
	nt := uint64(len(cfg.Targets))
	retries := 0
	for it.Pos() < end {
		posBase := it.Pos()
		if y.stopNow() {
			y.capture(posBase, 0)
			return ErrInterrupted
		}
		k := uint64(batch)
		if rem := end - posBase; rem < k {
			k = rem
		}
		n := it.NextBatch(y.idx[:k])
		if n == 0 {
			break
		}
		if y.skipByNeighborhood(minTTL + uint8(y.idx[0]/nt)) {
			// Under the heuristic the batch is this one probe: the skipped
			// index consumes no send slot and the clock stays where it is.
			y.stats.Skipped++
			continue
		}
		// Pre-build the batch, each packet stamped for its own
		// departure instant. The clock advances by exactly gap per
		// send — and early-stop drains do not advance it — so the
		// predicted instants equal the actual ones and the wire bytes
		// match a build-at-send exactly.
		y.buildBatch(0, n, y.conn.Now(), gap)
		sent := 0
		for sent < n {
			if sent > 0 && y.stopNow() {
				// Mid-batch interrupt: the iterator already consumed the
				// whole batch, so the cursor is the base position plus
				// the probes actually sent.
				y.capture(posBase+uint64(sent), 0)
				return ErrInterrupted
			}
			lim := n
			// Cap each send run at the next progress threshold: the clock
			// is gap-aligned here and thresholds sit on the grid, so the
			// run ends exactly on the threshold instant and the sample
			// reads the same counters at every batch size (drains, and
			// with them fills, only happen between runs).
			if y.prog != nil {
				if rem := int64((y.nextSample - y.conn.Now()) / gap); rem < int64(lim-sent) {
					lim = sent + int(rem)
				}
			}
			// Cap at the interrupt instant: nothing departs at or past
			// it, so the interrupted prefix of the schedule matches the
			// uninterrupted run exactly. An off-grid instant caps the
			// run mid-slot; the loop-top check then captures before the
			// next send.
			if cfg.interruptAt > 0 {
				if rem := int64((cfg.interruptAt - y.conn.Now()) / gap); rem < int64(lim-sent) {
					lim = sent + int(max(rem, 0))
				}
				if lim == sent {
					y.capture(posBase+uint64(sent), 0)
					return ErrInterrupted
				}
			}
			m, deliverable, err := y.conn.SendBatch(y.pkts[sent:lim], gap)
			if y.tel.sh != nil {
				y.tel.batchFill.Observe(int64(m))
				if deliverable && sent+m < lim {
					y.tel.earlyStops.Inc()
				}
			}
			y.stats.ProbesSent += int64(m)
			sent += m
			// Failures count as consecutive only while nothing gets out,
			// so a run's length never decides the bound — batch 1 included.
			if m > 0 || err == nil {
				retries = 0
			}
			if err != nil {
				if !probe.IsTransient(err) || retries >= retryMax {
					return y.fail(posBase+uint64(sent), 0, err)
				}
				// Transient send failure: back off one slot, rebuild the
				// unsent remainder for its shifted instants (the stamps
				// must keep matching the actual departure times), drain
				// anything that arrived meanwhile, and retry.
				retries++
				y.stats.Retries++
				y.conn.Sleep(gap)
				y.buildBatch(sent, n, y.conn.Now(), gap)
				deliverable = true
			}
			if deliverable && y.drainAll() {
				// A fill backed off inside the drain: restamp the unsent
				// remainder for its shifted instants.
				y.buildBatch(sent, n, y.conn.Now(), gap)
			}
			if y.fillErr != nil {
				return y.fail(posBase+uint64(sent), 0, y.fillErr)
			}
			y.maybeSample()
		}
	}
	return nil
}

// buildBatch builds the probes for the drawn indices idx[from:n] into
// their ring slots, the first stamped for departure at t0 and each
// following one a gap later. The drawn targets are scattered over the
// whole target list, so they are gathered first, in a loop of
// independent loads, and the build then reads them in cache.
func (y *Yarrp6) buildBatch(from, n int, t0, gap time.Duration) {
	cfg := &y.cfg
	nt := uint64(len(cfg.Targets))
	for i := from; i < n; i++ {
		y.tgts[i] = cfg.Targets[y.idx[i]%nt]
	}
	for i := from; i < n; i++ {
		off := i * probeStride
		m := y.codec.BuildProbeAt(y.ring[off:off+probeStride], y.tgts[i], minTTL+uint8(y.idx[i]/nt), t0+time.Duration(i-from)*gap)
		y.pkts[i] = y.ring[off : off+m]
	}
}

func (y *Yarrp6) skipByNeighborhood(ttl uint8) bool {
	if y.cfg.NeighborhoodWindow == 0 || ttl > y.cfg.NeighborhoodTTL {
		return false
	}
	last := y.lastNew[ttl]
	return last != 0 && y.conn.Now()-last > y.cfg.NeighborhoodWindow
}

// fail ends a run whose send failed fatally with err, returning it: the
// failed prober's counters are pinned at the failure instant, and the
// capture hands the continuation the unsent window from cursor, the
// in-flight replies and the lost fills.
func (y *Yarrp6) fail(cursor uint64, drainDeadline time.Duration, err error) error {
	if y.prog != nil {
		y.recordSample(y.conn.Now())
	}
	y.capture(cursor, drainDeadline)
	return err
}

// fill sends one fill probe under the bound batch sends retry under: a
// transient failure backs off one send slot and tries again, and the
// backoff is reported so the caller restamps what it pre-built. A fill
// that fails fatally, and every fill after it, is kept for the
// continuation (y.lost) and the run fails once the current drain is
// done, without moving the clock: every lost fill is due at the failure
// instant.
func (y *Yarrp6) fill(target netip.Addr, ttl uint8) (backedOff bool) {
	for retries := 0; y.fillErr == nil; retries++ {
		n := y.codec.BuildProbe(y.pkt, target, ttl)
		err := y.conn.Send(y.pkt[:n])
		if err == nil {
			y.stats.ProbesSent++
			y.stats.Fills++
			return backedOff
		}
		if !probe.IsTransient(err) || retries >= retryMax {
			y.fillErr = err
			break
		}
		y.stats.Retries++
		y.conn.Sleep(y.gap)
		backedOff = true
	}
	y.lost = append(y.lost, lostFill{target: target, ttl: ttl})
	return backedOff
}

// sendCarried opens a continued run by sending the fills its failed
// predecessor lost: they were due at the failure instant, where the run
// resumes.
func (y *Yarrp6) sendCarried() {
	if rs := y.cfg.resume; rs != nil {
		for _, f := range rs.fills {
			y.fill(f.target, f.ttl)
		}
	}
}

// drainAll processes every deliverable reply, recvBatch at a time.
// Replies come out in delivery order, and fills triggered while
// processing schedule strictly future deliveries, so one pass handles
// everything that is due; a fill that backs off (the return value)
// moves the clock, so the pass repeats until nothing is left. Under the
// neighborhood heuristic the fold catches up before the next skip
// decision reads lastNew.
func (y *Yarrp6) drainAll() (backedOff bool) {
	if y.rsizes == nil {
		y.rbatch = make([]byte, recvBatch*wire.MinMTU)
		y.rsizes = make([]int, recvBatch)
	}
	for {
		n := y.conn.RecvBatch(y.rbatch, y.rsizes)
		off, slept := 0, false
		for i := 0; i < n; i++ {
			slept = y.handleReply(y.rbatch[off:off+y.rsizes[i]]) || slept
			off += y.rsizes[i]
		}
		backedOff = backedOff || slept
		if n < len(y.rsizes) && !slept {
			break
		}
	}
	if y.cfg.NeighborhoodWindow > 0 {
		y.fold.sync()
	}
	return backedOff
}

// handleReply parses one reply, counts it, queues it for the fold, and
// drives fill mode; it reports a fill that backed off.
func (y *Yarrp6) handleReply(b []byte) (backedOff bool) {
	r, ok := y.codec.ParseReply(b)
	if !ok {
		return false
	}
	y.stats.Replies++
	y.kindCount[r.Kind]++
	if y.tel.sh != nil && r.RTT > 0 {
		y.tel.rtt.Observe(int64(r.RTT / time.Microsecond))
	}
	y.fold.add(r)
	// Fill mode: a response from at or past the maximum randomized TTL
	// extends the trace sequentially toward the destination. Fills are
	// uncommon and land at path tails, where sequential probing has the
	// least rate-limiting impact (Section 4.1). The fill probe is built
	// in the prober's own packet buffer (y.pkt via fill) — safe even
	// though b still holds the triggering reply, because the parsed
	// Reply carries no slices into either buffer — so fills allocate
	// nothing.
	if y.cfg.Fill && r.Kind == probe.KindTimeExceeded && r.StateRecovered &&
		r.TTL >= y.cfg.MaxTTL && r.TTL < fillLimit && r.Target.IsValid() {
		return y.fill(r.Target, r.TTL+1)
	}
	return false
}
