package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"beholder"
	"beholder/internal/core"
	"beholder/internal/graph"
	"beholder/internal/netsim"
	"beholder/internal/perm"
	"beholder/internal/probe"
	"beholder/internal/store"
	"beholder/internal/wire"
)

// layerPass is the traced run's in-process half: for each campaign it
// times the public calls into every layer on that campaign's own
// inputs, and checks each derived store against the 1-shard engine's.
// Times and counts accumulate across campaigns (the daemon-burst pass
// replays several small ones); ratios are computed from the sums.
type layerPass struct {
	in     *beholder.Internet
	shards int    // the workload's own shard count
	wide   int    // shard count of the sharding-overhead comparison
	tmp    string // directory for the store.Put measurement
	tr     *tracer
	res    *result

	// Accumulated across campaigns.
	wallDirect, wallWide, wallOwn  time.Duration // bare RunYarrp6 at 1, wide and own shards
	wallEngine1                    time.Duration // 1-shard run forced through core.Campaign
	wallSched                      time.Duration
	wallTraced, wallUntraced       time.Duration // staged replay with and without spans
	prime                          time.Duration
	primed                         int64
	merge, union, fromStore        time.Duration
	encode, ckptEncode, ckptResume time.Duration
	storeBytes, ckptBytes          int64
	buildMallocs                   uint64
	n                              replayCounts // traced replay
	probes, dropped                int64        // direct engine run
	planHits, planMisses, shared   int64        // own-shards engine run
	lastBlob                       []byte
}

func freshVantage(in *beholder.Internet) *netsim.Vantage {
	in.Reset()
	return in.NewVantage(vantageName).Conn().(*netsim.Vantage)
}

func (lp *layerPass) check(ok bool, format string, a ...any) {
	lp.res.attempted++
	if !ok {
		lp.res.fail(format, a...)
	}
}

// newCampaign builds c as a core.Campaign over v the way the facade's
// RunYarrp6 does: one clone per shard opened at its window start, or
// v itself for a lone shard.
func newCampaign(v *netsim.Vantage, c campaignInput, shards int, interruptAt time.Duration) *core.Campaign {
	epoch := v.Now()
	ccfg := core.CampaignConfig{
		Config:      core.Config{Targets: c.targets, PPS: probeRate, MaxTTL: probeMaxTTL, Key: c.key, Fill: c.fill},
		Shards:      shards,
		RecordPaths: true,
		InterruptAt: interruptAt,
	}
	if c.graph {
		ccfg.NewObserver = func(int) probe.Observer { return graph.New(v.Name()) }
	}
	if shards == 1 {
		return core.NewCampaign(ccfg, func(int, time.Duration) probe.Conn { return v })
	}
	v.BeginShardGroup()
	return core.NewCampaign(ccfg, func(_ int, start time.Duration) probe.Conn { return v.Clone(epoch + start) })
}

// gap is the inter-probe interval of every campaign here.
const gap = time.Second / probeRate

func domainOf(c campaignInput) uint64 {
	return uint64(len(c.targets)) * (probeMaxTTL - minTTL + 1)
}

// one measures every layer on campaign c (trace identifier id).
func (lp *layerPass) one(ctx context.Context, c campaignInput, id int) error {
	in := lp.in

	// The reference: the bare 1-shard engine run, tracing off.
	serial := c
	serial.shards = 1
	ref, err := runOp(in, serial)
	if err != nil {
		return err
	}
	refStore := ref.res.Store()
	lp.wallDirect += ref.wall
	lp.probes += ref.probes
	lp.dropped += ref.dropped

	// The same campaign at the comparison shard count and at the
	// workload's own: sharding overhead, and the plan-cache counters.
	ops := map[int]opSample{1: ref}
	for _, s := range []int{lp.wide, lp.shards} {
		if _, ran := ops[s]; ran {
			continue
		}
		sharded := c
		sharded.shards = s
		op, err := runOp(in, sharded)
		if err != nil {
			return err
		}
		lp.check(op.digest == ref.digest, "campaign %d: %d-shard store differs from the 1-shard store", id, s)
		ops[s] = op
	}
	lp.wallWide += ops[lp.wide].wall
	own := ops[lp.shards]
	lp.wallOwn += own.wall
	lp.planHits += own.res.PlanHits
	lp.planMisses += own.res.PlanMisses
	lp.shared += own.res.SharedPlanHits

	// One shard forced through the campaign engine (ROADMAP item e).
	camp := newCampaign(freshVantage(in), serial, 1, 0)
	runtime.GC()
	t0 := time.Now()
	st, _, err := camp.Run()
	lp.wallEngine1 += time.Since(t0)
	if err != nil {
		return fmt.Errorf("campaign engine: %w", err)
	}
	lp.check(st.Equal(refStore), "campaign %d: campaign-engine store differs from the direct run", id)

	for _, stage := range []func(campaignInput, int, *probe.Store) error{
		lp.replay, lp.buildAllocs, lp.windows, lp.primeReplay, lp.checkpoint,
	} {
		if err := stage(c, id, refStore); err != nil {
			return err
		}
	}
	if err := lp.supervised(ctx, c, id, refStore); err != nil {
		return err
	}
	t0 = time.Now()
	lp.lastBlob = refStore.AppendBinary(nil)
	lp.encode += time.Since(t0)
	lp.storeBytes += int64(len(lp.lastBlob))
	return nil
}

// replayPairs is how many times the staged replay runs traced and
// untraced, alternating. trace.overhead_share compares the medians: one
// pair differs by ±15 % whenever the shared host hiccups under either
// half, far more than the 5 % the overhead must stay within.
const replayPairs = 3

// replay runs the staged replay, traced then untraced, replayPairs
// times. The first traced replay's spans are the ones kept.
func (lp *layerPass) replay(c campaignInput, id int, refStore *probe.Store) error {
	var traced, untraced []float64
	for rep := 0; rep < replayPairs; rep++ {
		keep := lp.tr
		if rep > 0 {
			keep = newTracer() // pays the same clock readings; its spans are dropped
		}
		for _, tr := range []*tracer{keep, nil} {
			v := freshVantage(lp.in)
			var g *graph.Graph
			if c.graph {
				g = graph.New(v.Name())
			}
			rs := probe.NewStore(true)
			runtime.GC()
			t0 := time.Now()
			n, err := stagedReplay(v, c, rs, g, tr, id)
			wall := float64(time.Since(t0))
			if err != nil {
				return err
			}
			lp.check(rs.Equal(refStore), "campaign %d: replay store differs from the engine store", id)
			if tr == nil {
				untraced = append(untraced, wall)
				continue
			}
			traced = append(traced, wall)
			if tr == lp.tr {
				lp.n.probes += n.probes
				lp.n.fills += n.fills
				lp.n.replies += n.replies
				lp.n.novel += n.novel
			}
		}
	}
	lp.wallTraced += time.Duration(median(traced))
	lp.wallUntraced += time.Duration(median(untraced))
	return nil
}

// buildAllocs counts codec allocations in isolation: the build stage
// alone in permutation order (reading MemStats inside the replay would
// stop the world per batch).
func (lp *layerPass) buildAllocs(c campaignInput, _ int, _ *probe.Store) error {
	nt := uint64(len(c.targets))
	v := freshVantage(lp.in)
	codec := probe.NewCodec(v, wire.ProtoICMPv6, 0)
	codec.SetProbeCache(tmplCacheSize(len(c.targets)))
	it := perm.MustNew(c.key, domainOf(c)).Iter()
	var pkt [probeStride]byte
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for {
		x, ok := it.Next()
		if !ok {
			break
		}
		codec.BuildProbeAt(pkt[:], c.targets[x%nt], minTTL+uint8(x/nt), time.Duration(it.Pos())*gap)
	}
	runtime.ReadMemStats(&m1)
	lp.buildMallocs += m1.Mallocs - m0.Mallocs
	return nil
}

// windows makes four direct windowed runs — each primes its own window,
// as a recovery prober would — and times the merges that fold their
// stores and graphs.
func (lp *layerPass) windows(c campaignInput, id int, refStore *probe.Store) error {
	const windows = 4
	domain := domainOf(c)
	v := freshVantage(lp.in)
	epoch := v.Now()
	v.BeginShardGroup()
	conns := make([]*netsim.Vantage, windows)
	for s := range conns {
		conns[s] = v.Clone(epoch + time.Duration(domain*uint64(s)/windows)*gap)
	}
	stores := make([]*probe.Store, windows)
	graphs := make([]*graph.Graph, 0, windows)
	for s, conn := range conns {
		cfg := core.Config{
			Targets: c.targets, PPS: probeRate, MaxTTL: probeMaxTTL, Key: c.key, Fill: c.fill, Instance: uint8(s),
			PermStart: domain * uint64(s) / windows, PermEnd: domain * uint64(s+1) / windows,
		}
		if c.graph {
			g := graph.New(v.Name())
			graphs = append(graphs, g)
			cfg.Observer = g
		}
		stores[s] = probe.NewStore(true)
		if _, err := core.New(conn, cfg).Run(stores[s]); err != nil {
			return fmt.Errorf("window %d: %w", s, err)
		}
	}
	merged := probe.NewStore(true)
	t0 := time.Now()
	for _, ws := range stores {
		merged.Merge(ws)
	}
	lp.merge += time.Since(t0)
	lp.check(merged.Equal(refStore), "campaign %d: merged window stores differ from the engine store", id)
	if c.graph {
		t0 = time.Now()
		u := graph.Union(graphs...)
		lp.union += time.Since(t0)
		t0 = time.Now()
		fs := graph.FromStore(refStore, v.Name(), wire.ProtoICMPv6)
		lp.fromStore += time.Since(t0)
		lp.check(u.Equal(fs), "campaign %d: union of window graphs differs from the store-derived graph", id)
	}
	return nil
}

// primeReplay times the serial prime replay a sharded start pays before
// any shard runs: the schedule prefix preceding the last shard's window.
func (lp *layerPass) primeReplay(c campaignInput, _ int, _ *probe.Store) error {
	s := lp.shards
	if s == 1 {
		s = lp.wide
	}
	nt := uint64(len(c.targets))
	domain := domainOf(c)
	lo := domain * uint64(s-1) / uint64(s)
	v := freshVantage(lp.in)
	v.BeginShardGroup()
	conn := v.Clone(v.Now() + time.Duration(lo)*gap)
	base := conn.Now() - time.Duration(lo)*gap
	codec := probe.NewCodec(conn, wire.ProtoICMPv6, 0)
	codec.SetEpoch(base)
	codec.SetProbeCache(tmplCacheSize(len(c.targets)))
	toks := make([]int, nt)
	for i := range toks {
		toks[i] = -1
	}
	var pkt [probeStride]byte
	it := perm.MustNew(c.key, domain).Iter()
	t0 := time.Now()
	conn.BeginPrime()
	for it.Pos() < lo {
		x, _ := it.Next()
		at := base + time.Duration(it.Pos()-1)*gap
		ti, ttl := x%nt, minTTL+uint8(x/nt)
		if toks[ti] < 0 {
			n := codec.BuildProbeAt(pkt[:], c.targets[ti], ttl, at)
			tok, err := conn.PrimeFlow(pkt[:n])
			if err != nil {
				continue
			}
			toks[ti] = tok
		}
		conn.PrimeIdx(toks[ti], ttl, at)
	}
	conn.EndPrime()
	lp.prime += time.Since(t0)
	lp.primed += int64(lo)
	return nil
}

// checkpoint interrupts the campaign at its mid-point, times the
// artifact's encode and decode, and finishes the resumed run.
func (lp *layerPass) checkpoint(c campaignInput, id int, refStore *probe.Store) error {
	v := freshVantage(lp.in)
	camp := newCampaign(v, c, lp.shards, time.Duration(domainOf(c)/2)*gap)
	if _, _, err := camp.Run(); !errors.Is(err, core.ErrInterrupted) {
		return fmt.Errorf("mid-point interrupt: got %v", err)
	}
	t0 := time.Now()
	art, err := camp.Checkpoint()
	lp.ckptEncode += time.Since(t0)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	lp.ckptBytes += int64(len(art))
	var resumed *core.Campaign
	v.BeginShardGroup()
	t0 = time.Now()
	resumed, err = core.Resume(art, core.ResumeConfig{}, func(_ int, start time.Duration) probe.Conn {
		return v.Clone(resumed.Epoch() + start)
	})
	lp.ckptResume += time.Since(t0)
	if err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	st, _, err := resumed.Run()
	if err != nil {
		return fmt.Errorf("resumed run: %w", err)
	}
	lp.check(st.Equal(refStore), "campaign %d: checkpointed-and-resumed store differs from the engine store", id)
	return nil
}

// supervised runs the same campaign under the scheduler.
func (lp *layerPass) supervised(ctx context.Context, c campaignInput, id int, refStore *probe.Store) error {
	in := lp.in
	in.Reset()
	fv := in.NewVantage(vantageName)
	sch, err := in.NewScheduler(beholder.SchedulerOptions{Tenants: []beholder.Tenant{{Name: "bench"}}, Workers: 1})
	if err != nil {
		return err
	}
	runtime.GC()
	t0 := time.Now()
	h, err := sch.Submit(fv, c.targets, beholder.SubmitOptions{
		Tenant: "bench", Name: fmt.Sprintf("c%d", id),
		Rate: probeRate, MaxTTL: probeMaxTTL, Key: c.key, Fill: c.fill, Shards: lp.shards,
	})
	if err != nil {
		return fmt.Errorf("supervised submit: %w", err)
	}
	sres, err := h.Wait(ctx)
	lp.wallSched += time.Since(t0)
	if err != nil {
		return err
	}
	if _, err := sch.Drain(ctx); err != nil {
		return err
	}
	lp.check(sres.State == beholder.CampaignCompleted && sres.Store != nil && sres.Store.Equal(refStore),
		"campaign %d: supervised store differs from the engine store (state %v)", id, sres.State)
	return nil
}

// putLatencies times durable store.Put calls (temp file, fsync, rename,
// directory fsync, journal fsync) for a done-record-sized blob and for
// the campaign's encoded result store.
func (lp *layerPass) putLatencies() (small, large []float64, err error) {
	dir := filepath.Join(lp.tmp, "putbench")
	if err := os.RemoveAll(dir); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		return nil, nil, err
	}
	defer st.Close()
	time1 := func(kind string, blob []byte, reps int) ([]float64, error) {
		var ms []float64
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			if err := st.Put(fmt.Sprintf("bench__c%d", i), kind, blob); err != nil {
				return nil, err
			}
			ms = append(ms, float64(time.Since(t0))/1e6)
		}
		return ms, nil
	}
	if small, err = time1("done", []byte(`{"state":"completed"}`), 15); err != nil {
		return nil, nil, err
	}
	large, err = time1("store", lp.lastBlob, 5)
	return small, large, err
}

// metrics turns the accumulated sums into the in-process per-layer
// metrics.
func (lp *layerPass) metrics() (map[string]float64, error) {
	m := make(map[string]float64)
	self := lp.tr.selfTimes()
	scheduled := float64(lp.n.probes - lp.n.fills) // permutation probes: everything but fills
	replies := float64(lp.n.replies)
	ns := func(d time.Duration, n float64) float64 {
		if n == 0 {
			return 0
		}
		return float64(d) / n
	}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	m["perm.next_batch_ns_per_probe"] = ns(self[stageNames[stagePerm]], scheduled)
	m["codec.build_ns_per_probe"] = ns(self[stageNames[stageBuild]], scheduled)
	m["codec.build_allocs_per_probe"] = float64(lp.buildMallocs) / scheduled
	m["codec.parse_ns_per_reply"] = ns(self[stageNames[stageParse]], replies)
	m["netsim.send_ns_per_probe"] = ns(self[stageNames[stageSend]], scheduled)
	m["netsim.recv_ns_per_reply"] = ns(self[stageNames[stageRecv]], replies)
	m["probe.store.add_ns_per_reply"] = ns(self[stageNames[stageStore]], replies)
	m["probe.store.novel_share"] = float64(lp.n.novel) / replies
	m["graph.on_reply_ns_per_reply"] = ns(self[stageNames[stageGraph]], replies)

	var staged time.Duration
	for name, d := range self {
		if name != "campaign" {
			staged += d
		}
	}
	engine := ns(lp.wallDirect, float64(lp.probes))
	m["layers.sum_ns_per_probe"] = ns(staged, float64(lp.n.probes))
	m["layers.unattributed_share"] = (engine - m["layers.sum_ns_per_probe"]) / engine
	m["trace.overhead_share"] = float64(lp.wallTraced)/float64(lp.wallUntraced) - 1

	lookups := float64(lp.planHits + lp.planMisses)
	m["netsim.plan_hit_share"] = float64(lp.planHits) / lookups
	m["netsim.shared_plan_hit_share"] = float64(lp.shared) / lookups
	m["netsim.rate_limit_dropped_share"] = float64(lp.dropped) / float64(lp.probes)
	m["netsim.prime_ns_per_replayed_probe"] = ns(lp.prime, float64(lp.primed))
	if lp.shards > 1 {
		m["netsim.prime_share"] = float64(lp.prime) / float64(lp.wallOwn)
	} else {
		m["netsim.prime_share"] = 0
	}

	m["probe.store.merge_ms"] = ms(lp.merge)
	m["probe.store.encode_ms"] = ms(lp.encode)
	m["probe.store.bytes"] = float64(lp.storeBytes)
	m["graph.union_ms"] = ms(lp.union)
	m["graph.from_store_ms"] = ms(lp.fromStore)

	m["core.campaign.shard_overhead_ratio"] = float64(lp.wallWide) / float64(lp.wallDirect)
	cores := min(lp.wide, runtime.NumCPU())
	m["core.campaign.shard_efficiency"] = float64(lp.wallDirect) / float64(lp.wallWide) / float64(cores)
	m["core.campaign.engine_vs_direct_ratio"] = float64(lp.wallEngine1) / float64(lp.wallDirect)
	m["core.checkpoint.encode_ms"] = ms(lp.ckptEncode)
	m["core.checkpoint.bytes"] = float64(lp.ckptBytes)
	m["core.checkpoint.resume_ms"] = ms(lp.ckptResume)
	m["sched.supervised_overhead_ratio"] = float64(lp.wallSched) / float64(lp.wallOwn)

	small, large, err := lp.putLatencies()
	if err != nil {
		return nil, fmt.Errorf("store.Put measurement: %w", err)
	}
	m["store.put_small_ms_p50"] = median(small)
	m["store.put_large_ms_p50"] = median(large)
	m["store.put_mb_per_s"] = float64(len(lp.lastBlob)) / 1e6 / (median(large) / 1e3)
	return m, nil
}

// runLayers runs the layer pass over campaigns and returns the
// in-process per-layer metrics; the daemon-side ones are the caller's.
func runLayers(ctx context.Context, in *beholder.Internet, campaigns []campaignInput, p params, tmp string, res *result) (map[string]float64, *tracer, error) {
	lp := &layerPass{in: in, shards: campaigns[0].shards, wide: p.shards, tmp: tmp, tr: newTracer(), res: res}
	for i, c := range campaigns {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		if err := lp.one(ctx, c, i+1); err != nil {
			return nil, nil, err
		}
	}
	m, err := lp.metrics()
	return m, lp.tr, err
}
