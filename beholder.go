// Package beholder is a reproduction of "In the IP of the Beholder:
// Strategies for Active IPv6 Topology Discovery" (Beverly, Durairajan,
// Plonka, Rohrer — IMC 2018) as a reusable Go library.
//
// It provides Yarrp6 — the paper's stateless randomized high-speed IPv6
// topology prober — together with every substrate the study needs: a
// packet-level simulated IPv6 internetwork with RFC 4443 ICMPv6 rate
// limiting (standing in for the live Internet and a native vantage
// point), the seven seed-list sources and the three-step target
// generation pipeline, the sequential and Doubletree baseline probers,
// and the Section 6 subnet-inference algorithms.
//
// The top-level API wraps those pieces for application use; the
// Experiments type regenerates every table and figure in the paper's
// evaluation. See README.md for a tour and DESIGN.md for the system
// inventory.
package beholder

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"time"

	"beholder/internal/alias"
	"beholder/internal/core"
	"beholder/internal/faultsim"
	"beholder/internal/gen6prob"
	"beholder/internal/graph"
	"beholder/internal/ipv6"
	"beholder/internal/netsim"
	"beholder/internal/probe"
	"beholder/internal/seeds"
	"beholder/internal/subnet"
	"beholder/internal/target"
	"beholder/internal/telemetry"
	"beholder/internal/trace"
	"beholder/internal/wire"
)

// Internet is a deterministic simulated IPv6 internetwork: the study's
// measurement substrate. All campaigns run against it in virtual time,
// so a day-long probing campaign completes in seconds while exhibiting
// the same rate-limiting dynamics.
type Internet struct {
	u    *netsim.Universe
	seed int64
}

// NewInternet creates a campaign-scale internetwork (about 1200
// autonomous systems).
func NewInternet(seed int64) *Internet {
	return &Internet{u: netsim.NewUniverse(netsim.DefaultConfig(seed)), seed: seed}
}

// NewSmallInternet creates a small internetwork suitable for tests and
// quick demonstrations (about 120 autonomous systems).
func NewSmallInternet(seed int64) *Internet {
	return &Internet{u: netsim.NewUniverse(netsim.TestConfig(seed)), seed: seed}
}

// NumASes returns the autonomous system count.
func (in *Internet) NumASes() int { return len(in.u.ASes()) }

// NumPrefixes returns the advertised BGP prefix count.
func (in *Internet) NumPrefixes() int { return in.u.Table().NumPrefixes() }

// Reset restores pristine router state (token buckets, clock) while
// keeping the topology, as between the paper's trial days.
func (in *Internet) Reset() { in.u.ResetState() }

// Universe exposes the underlying simulator for advanced use.
func (in *Internet) Universe() *netsim.Universe { return in.u }

// FaultConfig is the deterministic fault-injection plane configuration:
// a seed keying every fault draw plus the rules to inject. See
// internal/faultsim for the failure-mode catalogue.
type FaultConfig = faultsim.Config

// FaultRule injects one fault class at one vantage (or one shard clone
// of it).
type FaultRule = faultsim.Rule

// FaultKind enumerates the injectable fault classes.
type FaultKind = faultsim.Kind

// Injectable fault classes, re-exported for rule construction.
const (
	FaultCrash         = faultsim.KindCrash
	FaultStall         = faultsim.KindStall
	FaultTransientSend = faultsim.KindTransientSend
	FaultTruncateReply = faultsim.KindTruncateReply
	FaultCorruptReply  = faultsim.KindCorruptReply
	FaultDelayBurst    = faultsim.KindDelayBurst
)

// FaultAnyShard in FaultRule.Shard matches every shard clone of the
// rule's vantage.
const FaultAnyShard = faultsim.MatchAnyShard

// SetFaults installs (or, with nil, clears) the fault-injection plane.
// Faults are resolved when a vantage is created, so call this before
// NewVantage for the vantages the rules should afflict. Fault draws are
// keyed on absolute virtual time: a faulted campaign is exactly as
// reproducible as a clean one, and checkpoint/resume commutes with the
// fault schedule.
func (in *Internet) SetFaults(fc *FaultConfig) { in.u.SetFaults(fc) }

// SeedList generates one seed source at the given scale (1.0 is
// campaign scale). name is one of the paper's list names: caida, dnsdb,
// fiebig, fdns_any, cdn-k256, cdn-k32, 6gen, tum, random.
func (in *Internet) SeedList(name string, scale float64) (seeds.List, error) {
	return seeds.Build(in.u, in.seed, name, seeds.Scale(scale))
}

// TargetSet runs the three-step target generation pipeline for one seed
// source: seeds → zn prefix transformation → IID synthesis. synth is one
// of "lowbyte1", "fixediid", "randomiid", "known"; zn must lie in
// [1, 128] unless synth is "known", which probes the seeds themselves
// and ignores it.
func (in *Internet) TargetSet(seedName string, zn int, synth string, scale float64) ([]netip.Addr, error) {
	method := target.LowByte1
	for method <= target.Known && method.String() != synth {
		method++
	}
	if method > target.Known {
		return nil, fmt.Errorf("beholder: unknown synthesis %q", synth)
	}
	if method != target.Known && (zn < 1 || zn > 128) {
		return nil, fmt.Errorf("beholder: zn %d outside [1, 128]", zn)
	}
	list, err := in.SeedList(seedName, scale)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(in.seed))
	set := target.Build(list, target.Spec{SeedName: seedName, ZN: zn, Synth: method}, rng)
	return set.Targets.Addrs(), nil
}

// GroundTruthSubnets exports the simulator's true subnet plan for up to
// limit subnets per AS with prefix length at most maxBits — the
// validation data Section 6 could only approximate on the real Internet.
func (in *Internet) GroundTruthSubnets(maxBits, perASLimit int) []netip.Prefix {
	var out []netip.Prefix
	for _, as := range in.u.ASes() {
		if as.Tier != 3 {
			continue
		}
		out = append(out, in.u.TruthSubnets(as, maxBits, perASLimit)...)
	}
	return out
}

// Vantage is a measurement host inside the internetwork.
type Vantage struct {
	in *Internet
	v  *netsim.Vantage

	// clk tracks this vantage's own campaign timeline. Vantages created
	// on one universe share the underlying simulator clock (the
	// single-prober regime); a sharded campaign's shard clones get
	// private clocks opened relative to the campaign epoch, and that
	// epoch must not depend on what OTHER vantages concurrently did to
	// the shared clock — per-packet draws are keyed on absolute virtual
	// send time, so a racing epoch read would make results depend on
	// goroutine scheduling. For a lone vantage, clk equals the shared
	// clock at every point the old Now()-read did, so behaviour is
	// unchanged; for concurrent vantages it pins each family's schedule
	// deterministically.
	clk time.Duration
}

// NewVantage attaches a vantage by name. Names map deterministically to
// host networks; the same name always lands in the same AS.
func (in *Internet) NewVantage(name string) *Vantage {
	return in.NewVantageAt(name, "university", 4)
}

// NewVantageAt attaches a vantage to an AS of the given kind
// ("university", "hosting", "eyeball", "enterprise", "transit") with the
// given on-premise access path length.
func (in *Internet) NewVantageAt(name, kind string, chainLen int) *Vantage {
	var k netsim.ASKind
	switch kind {
	case "university":
		k = netsim.KindUniversity
	case "hosting":
		k = netsim.KindHosting
	case "eyeball":
		k = netsim.KindEyeballISP
	case "enterprise":
		k = netsim.KindEnterprise
	default:
		k = netsim.KindTransit
	}
	nv := in.u.NewVantage(netsim.VantageSpec{Name: name, Kind: k, ChainLen: chainLen})
	return &Vantage{in: in, v: nv, clk: nv.Now()}
}

// Addr returns the vantage's probing source address.
func (v *Vantage) Addr() netip.Addr { return v.v.LocalAddr() }

// Conn exposes the vantage as a probe connection for direct prober use.
func (v *Vantage) Conn() probe.Conn { return v.v }

// TelemetryRegistry aggregates campaign metrics: counters, gauges, and
// fixed-bucket histograms. One registry may span several runs (and
// several concurrent shards — each holds a private delta buffer that
// folds in at sampling cadence, keeping the probe fast path free of
// shared-memory traffic). Pass it in YarrpOptions, AliasOptions, or the
// trace options to collect; read back via Snapshot/Delta or serve it
// with ServeTelemetry.
type TelemetryRegistry = telemetry.Registry

// TelemetrySnapshot is a point-in-time, name-sorted view of a
// TelemetryRegistry.
type TelemetrySnapshot = telemetry.Snapshot

// ProgressPoint is one sample of a campaign's live progress series:
// campaign-relative virtual timestamp plus cumulative counters. The
// series is deterministic — byte-identical at any shard count and batch
// size.
type ProgressPoint = telemetry.Point

// NewTelemetry creates an empty metrics registry.
func NewTelemetry() *TelemetryRegistry { return telemetry.NewRegistry() }

// ServeTelemetry starts an HTTP observability endpoint on addr (use
// ":0" for an ephemeral port) serving /metrics (Prometheus text),
// /debug/vars (expvar), and /debug/pprof/. It returns the bound
// address. The server runs until process exit.
func ServeTelemetry(addr string, reg *TelemetryRegistry) (string, error) {
	a, err := telemetry.Serve(addr, reg)
	if err != nil {
		return "", err
	}
	return a.String(), nil
}

// YarrpOptions parameterizes a Yarrp6 campaign through the facade.
type YarrpOptions struct {
	Rate      float64 // packets per second (default 1000)
	MaxTTL    int     // default 16
	Transport string  // "icmp6" (default), "udp", "tcp"
	Fill      bool    // enable fill mode
	Key       uint64  // permutation key
	// Shards splits the permutation domain across this many concurrent
	// Yarrp6 instances (distinct Instance bytes, same key), each on its
	// own cloned vantage connection. The shards replay the exact
	// single-prober virtual schedule in parallel wall time: results are
	// deterministic at any shard count and byte-identical to a 1-shard
	// run — each shard clone opens with its router token buckets
	// advanced through the serial schedule preceding its window, so
	// even rate-limit-saturated regimes shard exactly (see
	// core.Campaign; fill mode retains a narrow saturation caveat
	// because fill probes are reply-dependent — the core package
	// comment states its bound). Default 1. Every run is a campaign, one
	// shard included, and probes on clones only — the vantage's own
	// connection never sends: a lone shard is clone 0 like the first of
	// many, and when its connection dies mid-run it is quarantined and
	// continues from where it stopped on a further clone.
	Shards int
	// Batch is the probe-pipeline send-batch size: permutation draw,
	// probe build, and simulator routing are dispatched Batch probes at
	// a time. Batching never changes the virtual schedule — results are
	// byte-identical at any value. Zero selects the engine default
	// (core.DefaultBatch); one dispatches probe by probe through the
	// same loop.
	Batch int
	// Graph makes the run return with its topology graph built — fresh,
	// resumed, adaptive or interrupted alike — so Result.Graph() is
	// already paid for and the graph_* telemetry gauges are published.
	// It decides only when the graph is built, never how: without it the
	// same construction runs on the first Result.Graph() call.
	Graph bool
	// Telemetry, when non-nil, collects hot-path metrics for the run:
	// yarrp_* probe/reply counters and RTT/batch-fill/drain-gap
	// histograms from the prober, plus sim_*, plan_cache_*, store and
	// graph figures folded in by the facade at run end. The registry
	// may be shared across runs; Result.Telemetry holds the snapshot
	// taken when this run finished.
	Telemetry *TelemetryRegistry
	// Progress, when non-nil, streams the campaign's progress series
	// (Result.Progress) as NDJSON sample records stamped in virtual time.
	// The stream is deterministic: byte-identical at any Shards and Batch
	// setting.
	Progress io.Writer
	// ProgressPerShard appends per-shard breakdown records to the
	// Progress stream after the sample series.
	ProgressPerShard bool
	// InterruptAt, when positive, stops the campaign at that instant of
	// campaign virtual time (as an operator's signal handler would at a
	// wall instant). RunYarrp6 then returns the partial Result — with
	// Result.Checkpoint holding the serialized resume artifact — and an
	// error wrapping ErrInterrupted. Every run, one shard included, is a
	// campaign and so checkpointable.
	InterruptAt time.Duration
	// Adaptive, when non-nil, switches the run to closed-loop
	// probabilistic target generation: the targets passed to RunYarrp6
	// become the generator's seed observations, and the campaign grows
	// its own (target × TTL) domain epoch by epoch (see AdaptiveOptions).
	Adaptive *AdaptiveOptions
}

// AdaptiveOptions parameterizes adaptive probabilistic target
// generation (internal/gen6prob over the core adaptive campaign
// engine). The run probes in epochs: a density-weighted prefix trie —
// seeded from the 6Gen clusters of the observed addresses — samples
// each epoch's target batch, and the epoch's results feed back before
// the next batch: targets whose traces surfaced never-seen interfaces
// reward their trie paths, and prefixes the between-epoch alias
// detector flags are pruned outright. The whole series is
// deterministic at any Shards × Batch combination, and an interrupted
// run's checkpoint carries the generator whole — seed observations and
// these options included — so ResumeYarrp6 needs nothing else.
type AdaptiveOptions struct {
	// Budget caps total probes across all epochs. Zero leaves MaxEpochs
	// alone to bound the run.
	Budget int64
	// EpochTargets caps the targets generated per epoch. Default 256.
	EpochTargets int
	// MaxEpochs bounds the epoch count. Default 16.
	MaxEpochs int
	// AliasMinHits is the fully-responsive-target count per /64 that
	// nominates the prefix for alias detection at the epoch boundary
	// (default 1 — the generator probes one low-byte address per /64;
	// negative disables boundary detection).
	AliasMinHits int
}

// ErrInterrupted is returned (wrapped) by RunYarrp6 and ResumeYarrp6
// when the campaign stopped at YarrpOptions.InterruptAt; the partial
// Result carries the checkpoint artifact to resume from.
var ErrInterrupted = core.ErrInterrupted

// Result holds a campaign's outcome.
type Result struct {
	ProbesSent int64
	Fills      int64
	Replies    int64
	Elapsed    time.Duration
	// ShardStats holds the per-instance counter breakdown of a campaign
	// that ran more than one prober instance (shards, or the recovery
	// probers of a crashed shard); nil for single-instance runs.
	ShardStats []core.Stats
	// PlanHits, PlanMisses, PlanEvictions and SharedPlanHits are the
	// flow-plan table counters accumulated by this run alone, summed
	// across the clones it probed on. SharedPlanHits is the part of
	// PlanHits served by a core another vantage published — a sibling
	// shard, or any earlier campaign of the same identity, an earlier
	// campaign on this very vantage included (its cores were published by
	// that campaign's clones).
	PlanHits       int64
	PlanMisses     int64
	PlanEvictions  int64
	SharedPlanHits int64
	// PlanTableSlots and PlanTableCores describe the vantage's plan
	// table as the run left it — slot count, and slots holding a plan —
	// and PlanTableGrowths counts the times it rebuilt itself larger
	// during the run. PlanTableRouters is how many routers the vantage
	// identity's plans have named so far, the size of the router
	// registry beside the table: unlike the slots it has no byte cap.
	PlanTableSlots   int
	PlanTableCores   int
	PlanTableGrowths int64
	PlanTableRouters int
	// AddrTableSlots and AddrTableAddrs describe the address tables the
	// run's stores filed their replies in — one per shard — summed over
	// shards as they stood before the fold: slots allocated, and
	// addresses interned (interfaces and traced targets). An adaptive
	// run reports the one table of its accumulated store.
	AddrTableSlots int
	AddrTableAddrs int
	// Progress is the campaign's discovery series (the paper's Figure 7):
	// cumulative probes, replies and unique interfaces on a virtual-time
	// grid of ~129 points, the last at Elapsed with the run's totals.
	// Present on every static run — byte-identical at any Shards and
	// Batch — and nil for adaptive ones, whose Epochs chart discovery.
	Progress []ProgressPoint
	// Telemetry is the registry snapshot taken at run end, present when
	// YarrpOptions.Telemetry was set.
	Telemetry TelemetrySnapshot
	// Quarantined lists campaign shards whose connections failed fatally
	// mid-run (e.g. an injected crash) and which continued from where
	// they stopped on fresh clones; Incomplete lists the index ranges
	// of shards whose fresh clones kept failing until the campaign gave
	// them up. Both are empty on a clean run.
	Quarantined []int
	Incomplete  []core.PermRange
	// Checkpoint is the serialized resume artifact of an interrupted
	// campaign, set when the run stopped at YarrpOptions.InterruptAt.
	// Feed it to Vantage.ResumeYarrp6 to finish the campaign with
	// byte-identical results.
	Checkpoint []byte
	// Epochs holds the per-epoch breakdown of an adaptive run
	// (YarrpOptions.Adaptive): targets generated, window placement, and
	// the cumulative interface count at each boundary. Nil for static
	// campaigns.
	Epochs []core.EpochStats

	store   *probe.Store
	graph   *graph.Graph
	vantage string
	proto   uint8
}

// NumInterfaces returns the count of unique router interface addresses
// discovered (sources of ICMPv6 Time Exceeded).
func (r *Result) NumInterfaces() int { return r.store.NumInterfaces() }

// Interfaces returns the discovered interface addresses.
func (r *Result) Interfaces() []netip.Addr { return r.store.Interfaces() }

// Path returns the traced path toward target as (ttl, address) hops in
// TTL order.
func (r *Result) Path(target netip.Addr) []probe.HopEntry {
	t := r.store.Trace(target)
	if t == nil {
		return nil
	}
	tab := r.store.AddrTable()
	out := make([]probe.HopEntry, 0, t.PathLength())
	r.store.ForEachHop(t, func(ttl uint8, id uint32) {
		out = append(out, probe.HopEntry{TTL: ttl, Addr: tab.Addr(id)})
	})
	return out
}

// Reached reports whether the target itself responded.
func (r *Result) Reached(target netip.Addr) bool {
	t := r.store.Trace(target)
	return t != nil && t.Reached
}

// Discovered reports whether addr was seen as a router interface
// address, without materializing the interface slice.
func (r *Result) Discovered(addr netip.Addr) bool { return r.store.AddrSeen(addr) }

// Store exposes the underlying result store for analysis.
func (r *Result) Store() *probe.Store { return r.store }

// Graph returns the campaign's interface-level topology graph: a pure
// function of the merged trace store (graph.FromStore), whatever produced
// the store — one shard or many, shards continued after a crash, a
// resumed or an adaptive run. It is built once — before the run returned with
// YarrpOptions.Graph, on the first call otherwise — and cached. The graph
// supports canonical NDJSON/DOT export, router collapse against
// alias-detection results, and cross-vantage union via UnionGraphs.
func (r *Result) Graph() *graph.Graph {
	if r.graph == nil {
		r.graph = graph.FromStore(r.store, r.vantage, r.proto)
	}
	return r.graph
}

// UnionGraphs folds campaign graphs from any number of vantages (or
// protocols) into one topology graph. The merge is commutative and
// shard-safe; inputs are not modified.
func UnionGraphs(gs ...*graph.Graph) *graph.Graph { return graph.Union(gs...) }

// CollapseGraph folds a graph's interfaces into router nodes using
// detected aliased prefixes: every interface beneath one aliased prefix
// becomes a single router. aliases may be nil, making the collapse the
// identity.
func CollapseGraph(g *graph.Graph, aliases *AliasSet) *graph.RouterGraph {
	var st *alias.Store
	if aliases != nil {
		st = aliases.res.Aliased
	}
	return g.Collapse(graph.StoreResolver(st))
}

// coreConfig is the one mapping from facade probing options to the
// engine's configuration; RunYarrp6, static or adaptive, and
// Scheduler.Submit all go through it, so out-of-range values get the
// same verdict everywhere instead of being truncated to a uint8.
func (o *YarrpOptions) coreConfig(targets []netip.Addr) (core.Config, error) {
	proto, err := wire.ProtoOfTransport(o.Transport)
	if err != nil {
		return core.Config{}, fmt.Errorf("beholder: %w", err)
	}
	if o.MaxTTL < 0 || o.MaxTTL > 255 {
		return core.Config{}, fmt.Errorf("beholder: MaxTTL %d out of range", o.MaxTTL)
	}
	return core.Config{
		Targets: targets,
		PPS:     o.Rate,
		MaxTTL:  uint8(o.MaxTTL),
		Proto:   proto,
		Key:     o.Key,
		Fill:    o.Fill,
		Batch:   o.Batch,
	}, nil
}

// campaignRun is the bracket around one campaign-shaped run — static or
// adaptive, fresh or resumed: beginRun records the baselines, connOf
// hands the engine its connections, finish turns the engine's outcome
// into the Result.
type campaignRun struct {
	v         *Vantage
	opt       *YarrpOptions
	simBefore netsim.SimStats
	// growthsBefore is the plan table's rebuild count when the run began.
	growthsBefore int64
	// epoch is the absolute virtual instant shard clones open relative
	// to: the vantage's own timeline for a fresh run, the artifact's
	// original epoch for a resumed one — clones must reopen at the
	// original instants for the keyed per-packet draws to replay.
	epoch  time.Duration
	clones []*netsim.Vantage
}

func (v *Vantage) beginRun(opt *YarrpOptions) *campaignRun {
	r := &campaignRun{v: v, opt: opt, epoch: v.clk}
	_, _, r.growthsBefore, _ = v.v.PlanTableStats()
	if opt.Telemetry != nil {
		r.simBefore = v.in.u.StatsSnapshot()
	}
	v.v.BeginShardGroup()
	return r
}

// connOf is the run's core.ConnFactory: every prober — each shard, a
// lone one included, and each shard continued after a crash — probes
// on a clone of the vantage opened at the requested offset from the
// run's epoch. The vantage itself never probes, and a static run's
// shard s starts on clone ordinal s, the identity fault rules match on;
// continuations take the ordinals after the last shard's.
func (r *campaignRun) connOf(shard int, start time.Duration) probe.Conn {
	nv := r.v.v.Clone(r.epoch + start)
	r.clones = append(r.clones, nv)
	return nv
}

// finish is the one epilogue: a fatal engine error is returned bare;
// otherwise the vantage's clock is settled, result builds the Result,
// its graph is built if the options asked for it up front, the plan-cache
// and telemetry figures are folded in, and an interrupted run's checkpoint
// is attached beside its ErrInterrupted.
func (r *campaignRun) finish(runErr error, elapsed time.Duration, result func() *Result, checkpoint func() ([]byte, error)) (*Result, error) {
	interrupted := errors.Is(runErr, core.ErrInterrupted)
	if runErr != nil && !interrupted {
		return nil, runErr
	}
	v := r.v
	// The campaign ran on clones: drive v's own clock through it so
	// follow-up operations on this vantage see the same virtual time at
	// any shard count. The vantage's own timeline advances with it —
	// never from another vantage's concurrent activity on the shared
	// clock.
	v.v.Sleep(elapsed)
	v.clk = r.epoch + elapsed
	res := result()
	if r.opt.Graph {
		res.Graph()
	}
	res.setPlanStats(v, r.growthsBefore, r.clones)
	if reg := r.opt.Telemetry; reg != nil {
		v.publishRunTelemetry(reg, r.simBefore, res)
		res.Telemetry = reg.Snapshot()
	}
	if interrupted {
		art, err := checkpoint()
		if err != nil {
			return nil, err
		}
		res.Checkpoint = art
	}
	return res, runErr
}

// campaignResult assembles a Result from an engine outcome.
func (v *Vantage) campaignResult(store *probe.Store, stats core.CampaignStats, proto uint8) *Result {
	res := &Result{
		ProbesSent:  stats.ProbesSent,
		Fills:       stats.Fills,
		Replies:     stats.Replies,
		Elapsed:     stats.Elapsed,
		Progress:    stats.Progress,
		Quarantined: stats.Quarantined,
		Incomplete:  stats.Incomplete,
		Epochs:      stats.Epochs,
		store:       store,
		vantage:     v.v.Name(),
		proto:       proto,

		AddrTableSlots: stats.AddrTableSlots,
		AddrTableAddrs: stats.AddrTableAddrs,
	}
	if res.AddrTableSlots == 0 && store != nil {
		res.AddrTableSlots, res.AddrTableAddrs = store.AddrTable().Slots(), store.AddrTable().Len()
	}
	if len(stats.PerShard) > 1 {
		res.ShardStats = stats.PerShard
	}
	return res
}

// RunYarrp6 probes targets with the randomized stateless prober. Every
// run is a core.Campaign: with opt.Shards > 1 the permutation domain is
// split across that many concurrent prober instances, each on its own
// cloned vantage connection, replaying the single-instance virtual
// schedule in a fraction of the wall time (see YarrpOptions.Shards for
// the exact equivalence guarantee); one shard probes on one clone. With
// opt.Adaptive the targets are instead the generator's seed observations
// and a core.AdaptiveCampaign grows its own domain epoch by epoch (see
// AdaptiveOptions).
func (v *Vantage) RunYarrp6(targets []netip.Addr, opt YarrpOptions) (*Result, error) {
	cfg, err := opt.coreConfig(targets)
	if err != nil {
		return nil, err
	}
	ccfg := core.CampaignConfig{
		Config:           cfg,
		Shards:           max(opt.Shards, 1),
		RecordPaths:      true,
		Telemetry:        opt.Telemetry,
		ProgressWriter:   opt.Progress,
		ProgressPerShard: opt.ProgressPerShard,
		InterruptAt:      opt.InterruptAt,
	}
	ao := opt.Adaptive
	if ao == nil {
		run := v.beginRun(&opt)
		return run.finishCampaign(core.NewCampaign(ccfg, run.connOf))
	}
	ccfg.Targets = nil
	src := gen6prob.New(targets, gen6prob.Config{Key: opt.Key, AliasMinHits: ao.AliasMinHits})
	run := v.beginRun(&opt)
	return run.finishCampaign(core.NewAdaptive(core.AdaptiveConfig{
		CampaignConfig: ccfg,
		Source:         src,
		Budget:         ao.Budget,
		EpochTargets:   ao.EpochTargets,
		MaxEpochs:      ao.MaxEpochs,
		DetectAliases:  aliasHook(v.v, v.in.seed, src),
	}, run.connOf))
}

// engine is a campaign finishCampaign can close: a core.Campaign or a
// core.AdaptiveCampaign, fresh or resumed.
type engine interface {
	Run() (*probe.Store, core.CampaignStats, error)
	MergedStore() *probe.Store
	Proto() uint8
	Epoch() time.Duration
	Checkpoint() ([]byte, error)
}

// finishCampaign runs a campaign — static or adaptive, fresh or resumed
// — and closes the run; an interrupted campaign's partial store is
// folded here, where it is published.
func (r *campaignRun) finishCampaign(camp engine) (*Result, error) {
	store, stats, err := camp.Run()
	if errors.Is(err, core.ErrInterrupted) {
		store = camp.MergedStore()
	}
	return r.finish(err, stats.Elapsed, func() *Result {
		return r.v.campaignResult(store, stats, camp.Proto())
	}, camp.Checkpoint)
}

// ResumeYarrp6 resumes an interrupted campaign — static or adaptive —
// from the checkpoint artifact a previous run's Result.Checkpoint
// carried, and runs it to completion (or to opt.InterruptAt again —
// checkpoints compose). The artifact is self-contained: it pins the
// campaign configuration, and an adaptive one carries its generator
// whole, seed observations included. Of opt only Telemetry, Progress,
// ProgressPerShard, Graph, and InterruptAt apply. Resumed on an
// identically-seeded Internet replayed to the same virtual instant, the
// finished campaign is byte-identical — store, graph, progress series or
// epochs — to one that was never interrupted: router token-bucket levels
// ride in the artifact, so even rate-limiters saturated across the
// interrupt instant replay exactly.
func (v *Vantage) ResumeYarrp6(artifact []byte, opt YarrpOptions) (*Result, error) {
	info, err := core.InspectCheckpoint(artifact)
	if err != nil {
		return nil, err
	}
	rc := core.ResumeConfig{
		Telemetry:        opt.Telemetry,
		ProgressWriter:   opt.Progress,
		ProgressPerShard: opt.ProgressPerShard,
		InterruptAt:      opt.InterruptAt,
	}
	run := v.beginRun(&opt)
	var camp engine
	if info.Adaptive {
		src := new(gen6prob.Source)
		rc.Source, rc.DetectAliases = src, aliasHook(v.v, v.in.seed, src)
		camp, err = core.ResumeAdaptive(artifact, rc, run.connOf)
	} else {
		camp, err = core.Resume(artifact, rc, run.connOf)
	}
	if err != nil {
		return nil, err
	}
	run.epoch = camp.Epoch()
	return run.finishCampaign(camp)
}

// aliasHook builds an adaptive campaign's between-epoch alias-detection
// hook: the candidate /64s src nominates (its AliasMinHits, which may
// disable nomination) are probed with the APD scheme on a private
// boundary clone of pv. The clone owns its clock and token buckets, so
// the verdicts are a pure function of (seed, epoch, candidates) —
// deterministic at any shard count — and the campaign schedule is
// undisturbed; like DetectAliases it probes without a plan table. src is
// read at each boundary, so a source restored after the hook was built
// nominates by its restored configuration.
func aliasHook(pv *netsim.Vantage, seed int64, src *gen6prob.Source) func(int, *probe.Store) []netip.Prefix {
	return func(epoch int, store *probe.Store) []netip.Prefix {
		cands := src.AliasCandidates(store)
		if len(cands) == 0 {
			return nil
		}
		nv := pv.Clone(0)
		defer nv.SuspendPlanCache()()
		det := alias.NewDetector(nv, alias.DefaultParams())
		rng := rand.New(rand.NewSource(seed ^ int64(epoch+1)*0xa11a5))
		return det.Detect(cands, rng).Aliased.Prefixes()
	}
}

// setPlanStats fills the result's flow-plan table counters — the sum of
// the run's clones' whole-life counters (clones are born zeroed and die
// with the run; the vantage itself never probes) — and the table's shape
// at run end, with its rebuilds since growthsBefore.
func (r *Result) setPlanStats(v *Vantage, growthsBefore int64, clones []*netsim.Vantage) {
	for _, c := range clones {
		r.PlanHits += c.Stats.PlanHits
		r.PlanMisses += c.Stats.PlanMisses
		r.PlanEvictions += c.Stats.PlanEvictions
		r.SharedPlanHits += c.Stats.SharedPlanHits
	}
	r.PlanTableSlots, r.PlanTableCores, r.PlanTableGrowths, r.PlanTableRouters = v.v.PlanTableStats()
	r.PlanTableGrowths -= growthsBefore
}

// publishRunTelemetry folds the facade-level counters of one finished
// campaign into the registry: simulator event deltas, flow-plan cache
// outcomes, and store/graph discovery figures.
func (v *Vantage) publishRunTelemetry(reg *TelemetryRegistry, simBefore netsim.SimStats, res *Result) {
	sim := v.in.u.StatsSnapshot().Sub(simBefore)
	add := func(name string, n int64) { reg.Counter(name).Add(n) }
	sim.Each(func(stem string, n int64) { add("sim_"+stem+"_total", n) })
	add("plan_cache_hits_total", res.PlanHits)
	add("plan_cache_misses_total", res.PlanMisses)
	add("plan_cache_evictions_total", res.PlanEvictions)
	add("shared_plan_hits_total", res.SharedPlanHits)
	reg.Gauge("plan_table_slots").Set(int64(res.PlanTableSlots))
	reg.Gauge("plan_table_cores").Set(int64(res.PlanTableCores))
	reg.Gauge("plan_table_routers").Set(int64(res.PlanTableRouters))
	add("plan_table_growths_total", res.PlanTableGrowths)
	reg.Gauge("addr_table_slots").Set(int64(res.AddrTableSlots))
	reg.Gauge("addr_table_addrs").Set(int64(res.AddrTableAddrs))
	reg.Gauge("store_unique_interfaces").Set(int64(res.store.NumInterfaces()))
	reg.Gauge("store_traces").Set(int64(res.store.NumTraces()))
	if res.graph != nil {
		reg.Gauge("graph_nodes").Set(int64(res.graph.NumNodes()))
		reg.Gauge("graph_edges").Set(int64(res.graph.NumEdges()))
	}
	if res.ProbesSent > 0 {
		reg.Gauge("discovery_per_probe_ppm").Set(int64(res.store.NumInterfaces()) * 1_000_000 / res.ProbesSent)
	}
}

// SequentialOptions parameterizes the scamper-like baseline.
type SequentialOptions struct {
	Rate   float64
	MaxTTL int
	Window int
	// Telemetry, when non-nil, receives the run's trace_* counters.
	Telemetry *TelemetryRegistry
}

// RunSequential probes targets with the stateful sequential baseline
// (per-destination increasing TTL, ICMP-Paris semantics).
func (v *Vantage) RunSequential(targets []netip.Addr, opt SequentialOptions) *Result {
	store := probe.NewStore(true)
	ecfg := trace.EngineConfig{PPS: opt.Rate, Window: opt.Window}
	if opt.Telemetry != nil {
		ecfg.Telemetry = opt.Telemetry.NewShard()
	}
	s := trace.NewSequential(v.v, trace.SequentialConfig{
		Engine: ecfg,
		MaxTTL: uint8(opt.MaxTTL),
	})
	stats := s.Run(targets, store)
	v.clk = v.v.Now()
	return &Result{ProbesSent: stats.ProbesSent, Elapsed: stats.Elapsed, store: store,
		vantage: v.v.Name(), proto: wire.ProtoICMPv6}
}

// DoubletreeOptions parameterizes the Doubletree baseline.
type DoubletreeOptions struct {
	Rate     float64
	StartTTL int
	MaxTTL   int
	Window   int
	// Telemetry, when non-nil, receives the run's trace_* counters
	// (including trace_stopset_hits_total).
	Telemetry *TelemetryRegistry
}

// RunDoubletree probes targets with Doubletree's forward/backward
// stop-set algorithm.
func (v *Vantage) RunDoubletree(targets []netip.Addr, opt DoubletreeOptions) *Result {
	store := probe.NewStore(true)
	ecfg := trace.EngineConfig{PPS: opt.Rate, Window: opt.Window}
	if opt.Telemetry != nil {
		ecfg.Telemetry = opt.Telemetry.NewShard()
	}
	d := trace.NewDoubletree(v.v, trace.DoubletreeConfig{
		Engine:   ecfg,
		StartTTL: uint8(opt.StartTTL),
		MaxTTL:   uint8(opt.MaxTTL),
	})
	stats := d.Run(targets, store)
	v.clk = v.v.Now()
	return &Result{ProbesSent: stats.ProbesSent, Elapsed: stats.Elapsed, store: store,
		vantage: v.v.Name(), proto: wire.ProtoICMPv6}
}

// Subnet is one inferred subnet candidate.
type Subnet struct {
	Prefix netip.Prefix
	MinLen int
	IAHack bool
}

// DiscoverSubnets runs Section 6's path-divergence inference plus the
// /64 IA hack over a campaign's traces, returning candidates and the
// count of traces pinned to exact /64s.
func (v *Vantage) DiscoverSubnets(r *Result) ([]Subnet, int) {
	res := subnet.Discover(r.store, v.in.u.Table(), v.v.AS().ASN)
	out := make([]Subnet, len(res.Candidates))
	for i, c := range res.Candidates {
		out[i] = Subnet{Prefix: c.Prefix, MinLen: c.MinLen, IAHack: c.IAHack}
	}
	return out, res.IAHackCount
}

// AliasOptions parameterizes aliased-prefix detection (APD) through the
// facade. Zero values select the library defaults.
type AliasOptions struct {
	Probes     int     // random IIDs probed per candidate prefix (default 8)
	MinReplies int     // replies classifying a candidate aliased (default: majority)
	Rate       float64 // probing rate in pps (default 1000)
	Budget     int64   // total probe cap (0 = unlimited)
	// Telemetry, when non-nil, receives the run's apd_* counters.
	Telemetry *TelemetryRegistry
}

// AliasSet is a detected aliased-prefix list together with its probing
// cost, produced by Vantage.DetectAliases.
type AliasSet struct {
	res *alias.Result
}

// Prefixes returns the detected aliased prefixes in address order.
func (a *AliasSet) Prefixes() []netip.Prefix { return a.res.Aliased.Prefixes() }

// Contains reports whether addr falls beneath a detected aliased prefix.
func (a *AliasSet) Contains(addr netip.Addr) bool { return a.res.Aliased.Contains(addr) }

// Len returns the number of detected aliased prefixes.
func (a *AliasSet) Len() int { return a.res.Aliased.Len() }

// ProbesSent returns the detection campaign's probe cost.
func (a *AliasSet) ProbesSent() int64 { return a.res.ProbesSent }

// Tested returns the number of candidate prefixes probed.
func (a *AliasSet) Tested() int { return a.res.Tested }

// Skipped returns the number of candidates left unprobed by the budget.
func (a *AliasSet) Skipped() int { return a.res.Skipped }

// Store exposes the underlying alias store for direct library use.
func (a *AliasSet) Store() *alias.Store { return a.res.Aliased }

// AliasCandidates derives the unique covering /64s of targets — the
// candidate prefixes DetectAliases probes. Targets are IPv6: like every
// address set, an IPv4 address counts in its IPv4-mapped form and a zone
// is ignored.
func AliasCandidates(targets []netip.Addr) []netip.Prefix {
	return alias.Candidates(ipv6.NewSet(targets), 64)
}

// DetectAliases probes candidate prefixes from this vantage with the
// 6Prob-style APD scheme: random IIDs per candidate, interleaved for
// per-prefix cool-down, under an optional probe budget. Candidates
// whose random addresses answer are aliased — a middlebox, not hosts.
func (v *Vantage) DetectAliases(candidates []netip.Prefix, opt AliasOptions) *AliasSet {
	// APD probes each random address exactly once, so its flows never
	// repeat and the flow-plan table cannot hit; run without it so the
	// one-shot flows are neither published nor counted toward its size.
	// Plans are pure functions of the flow, so this changes no results.
	defer v.v.SuspendPlanCache()()
	params := alias.Params{
		Probes:     opt.Probes,
		MinReplies: opt.MinReplies,
		PPS:        opt.Rate,
		Budget:     opt.Budget,
	}
	if opt.Telemetry != nil {
		params.Telemetry = opt.Telemetry.NewShard()
	}
	det := alias.NewDetector(v.v, params)
	rng := rand.New(rand.NewSource(v.in.seed ^ 0xa11a5))
	res := det.Detect(candidates, rng)
	v.clk = v.v.Now()
	return &AliasSet{res: res}
}

// DealiasStats re-exports the dealiasing summary.
type DealiasStats = alias.Stats

// DealiasTargets drops every target inside a detected aliased prefix,
// returning the cleaned list, sorted and deduplicated. The underlying
// library also offers a Collapse mode that keeps one representative per
// aliased prefix. Targets are IPv6: an IPv4 address comes back in its
// IPv4-mapped form and a zone is dropped (see ipv6.Set).
func DealiasTargets(targets []netip.Addr, aliases *AliasSet) ([]netip.Addr, DealiasStats) {
	kept, stats := alias.Dealias(ipv6.NewSet(targets), aliases.res.Aliased, alias.Drop)
	return kept.Addrs(), stats
}

// AliasedGroundTruth exports the simulator's true aliased /64s, up to
// perASLimit per hosting AS — the validation data real-world alias
// detection can only estimate.
func (in *Internet) AliasedGroundTruth(perASLimit int) []netip.Prefix {
	var out []netip.Prefix
	for _, as := range in.u.ASes() {
		out = append(out, in.u.TruthAliasedLANs(as, perASLimit)...)
	}
	return out
}

// FixedIID is the paper's fixed pseudo-random interface identifier used
// for target synthesis (Section 3.3).
const FixedIID = target.FixedIIDValue

// MustAddr parses an IPv6 address, panicking on error; a convenience for
// examples and tests.
func MustAddr(s string) netip.Addr { return ipv6.MustAddr(s) }
