package core

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"net/netip"
	"runtime"
	"slices"
	"testing"
	"time"

	"beholder/internal/netsim"
	"beholder/internal/probe"
	"beholder/internal/telemetry"
	"beholder/internal/wire"
)

// drawnConfigs is how many campaign configurations TestCampaignEquivalence
// draws beside its fixed rows.
const drawnConfigs = 48

// eqDraw is one campaign configuration and the run variants held to it.
type eqDraw struct {
	seed     int64
	saturate bool // saturationVantage's budgets; else AggressivePercent 0
	targets  int  // gateway targets sampled from the draw's universe
	cfg      Config
	// exact holds every shard count to the serial run even where the
	// package comment allows fill mode past saturation to differ, and
	// requires every cut to land.
	exact    bool
	pins     []string // reference store, graph and progress SHA-256s
	variants []eqVariant
}

// eqVariant is one way to run a draw's campaign.
type eqVariant struct {
	shards, batch int
	noTable       bool // SuspendPlanCache on every universe the run probes
	cuts          []eqCut
}

// eqCut interrupts a run at a virtual instant; the run continues as its
// kind says.
type eqCut struct {
	at   time.Duration
	kind cutKind
}

// cutKind is how a run continues after a cut.
type cutKind uint8

const (
	cutRewind   cutKind = iota // Rewind(rc, nil): on the live connections
	cutFailover                // Rewind onto fresh connections from the draw's factory
	cutResume                  // Resume(Checkpoint()) on a fresh identically seeded universe
)

func (k cutKind) String() string {
	return [...]string{"Rewind cut", "Failover cut", "Resume cut"}[k]
}

func (d eqDraw) String() string {
	return fmt.Sprintf("seed=%d saturate=%v targets=%d maxttl=%d pps=%g proto=%d fill=%v key=%d exact=%v",
		d.seed, d.saturate, d.targets, d.cfg.MaxTTL, d.cfg.PPS, d.cfg.Proto, d.cfg.Fill, d.cfg.Key, d.exact)
}

// span is the draw's send span: its whole domain at the probing rate.
func (d eqDraw) span() time.Duration {
	return time.Duration(d.targets*int(d.cfg.MaxTTL)) * sendGap(d.cfg.PPS)
}

// lands reports whether a cut must interrupt the run. A drawn cut in the
// drain tail may find the campaign past its last reply.
func (d eqDraw) lands(c eqCut) bool {
	return d.exact || c.at <= d.span()
}

func (d eqDraw) universe() (*netsim.Universe, *netsim.Vantage) {
	if d.saturate {
		return saturationVantage(d.seed)
	}
	u := campaignUniverse(d.seed)
	return u, u.NewVantage(netsim.VantageSpec{Name: "US-EDU-1", Kind: netsim.KindUniversity, ChainLen: 4})
}

// grid is every (shards, batch) cell, once per cut given, each as a
// one-cut chain that resumes from its artifact, or once uncut.
func grid(shards, batches []int, cuts ...time.Duration) []eqVariant {
	var out []eqVariant
	for _, s := range shards {
		for _, b := range batches {
			if len(cuts) == 0 {
				out = append(out, eqVariant{shards: s, batch: b})
			}
			for _, at := range cuts {
				out = append(out, eqVariant{shards: s, batch: b, cuts: []eqCut{{at, cutResume}}})
			}
		}
	}
	return out
}

func tableOff(vs []eqVariant) []eqVariant {
	for i := range vs {
		vs[i].noTable = true
	}
	return vs
}

// matrixRows are the configurations of the hand-written matrices this
// property replaced, each a row of it run under the matrix's name by the
// test of that name. Their variants are held to the serial run like
// every drawn one.
var matrixRows = func() map[string]eqDraw {
	const ms = time.Millisecond
	// Shard × batch cells, and checkpoints mid-send and in the drain
	// tail: 61 × 12 = 732 slots at 500 pps, sends span 1.464 s. The
	// reference is pinned to the retired one-probe-per-iteration loop's
	// bytes (serial_pin_test.go).
	row1213 := func(variants []eqVariant) eqDraw {
		return eqDraw{seed: 1213, targets: 61, cfg: campaignCfg(nil), exact: true,
			pins: []string{
				"a7504c44a6742010ae970f42f7d694c2c1ac2b88926bf4e20e918e458284314a",
				"27750dd89579f563c7ea85f8f3fa09c350a57a7cd41716814f975515fbde97da",
				"837e62a213640cdc1b678f4ee90fcaeeb422dd7eddbb34101e6674ac66fedba9",
			},
			variants: variants}
	}
	row77 := func(variants []eqVariant) eqDraw {
		return eqDraw{seed: 77, targets: 64, cfg: campaignCfg(nil), exact: true, variants: variants}
	}
	return map[string]eqDraw{
		"TestCampaignShardBatchMatrix":       row1213(grid([]int{1, 2, 4}, []int{1, 7, 64})),
		"TestCampaignCheckpointResumeMatrix": row1213(grid([]int{1, 2, 4}, []int{1, 64}, 600*ms, 1600*ms)),
		// Two resumes compose.
		"TestCampaignCheckpointChain": {seed: 4242, targets: 61, cfg: campaignCfg(nil), exact: true,
			variants: []eqVariant{{shards: 2, batch: 64, cuts: []eqCut{{400 * ms, cutResume}, {900 * ms, cutResume}}}}},
		// Fill mode past rate-limit saturation, exact at every shard count
		// on this seed: 48 × 12 slots at 8 kpps span 72 ms.
		"TestCampaignSaturationMatrix": {seed: 907, saturate: true, targets: 48, cfg: saturationCfg(nil), exact: true,
			variants: append(grid([]int{1, 2, 4}, []int{1, 64}), grid([]int{1, 2, 4}, []int{1, 64}, 40*ms, 110*ms)...)},
		"TestCampaignFillProgressMatrix":   row77(grid([]int{1, 2, 4}, []int{1, 64})),
		"TestCampaignShardCacheMatrix":     row77(append(tableOff(grid([]int{1, 4}, []int{0})), grid([]int{4}, []int{0})...)),
		"TestCampaignShardedMatchesSingle": row77(grid([]int{2, 4}, []int{0})),
		"TestGraphShardCacheMatrix": {seed: 909, targets: 96, cfg: campaignCfg(nil), exact: true,
			variants: append(grid([]int{1, 2, 4}, []int{0}), tableOff(grid([]int{1, 2, 4}, []int{0}))...)},
		// Repeated 4-shard runs, however the goroutines interleave.
		"TestCampaignDeterministicUnderScheduling": {seed: 31, targets: 48, cfg: campaignCfg(nil), exact: true,
			variants: grid([]int{4, 4, 4, 4}, []int{0})},
	}
}()

func TestCampaignShardBatchMatrix(t *testing.T)             { checkRow(t) }
func TestCampaignCheckpointResumeMatrix(t *testing.T)       { checkRow(t) }
func TestCampaignCheckpointChain(t *testing.T)              { checkRow(t) }
func TestCampaignSaturationMatrix(t *testing.T)             { checkRow(t) }
func TestCampaignFillProgressMatrix(t *testing.T)           { checkRow(t) }
func TestCampaignShardCacheMatrix(t *testing.T)             { checkRow(t) }
func TestCampaignShardedMatchesSingle(t *testing.T)         { checkRow(t) }
func TestGraphShardCacheMatrix(t *testing.T)                { checkRow(t) }
func TestCampaignDeterministicUnderScheduling(t *testing.T) { checkRow(t) }

// checkRow checks the matrix row named after the running test.
func checkRow(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	d, ok := matrixRows[t.Name()]
	if !ok {
		t.Fatalf("no matrix row named %s", t.Name())
	}
	t.Log(d)
	d.check(t)
}

// equivalenceDraws draws drawnConfigs configurations from a fixed seed.
func equivalenceDraws() []eqDraw {
	var draws []eqDraw
	rng := rand.New(rand.NewSource(40))
	for range drawnConfigs {
		d := eqDraw{seed: 1 + rng.Int63n(1<<16), saturate: rng.Intn(2) == 0, targets: 16 + rng.Intn(65)}
		d.cfg = Config{
			MaxTTL: uint8(8 + rng.Intn(9)),
			PPS:    []float64{500, 2000, 8000}[rng.Intn(3)],
			Proto:  []uint8{wire.ProtoICMPv6, wire.ProtoUDP, wire.ProtoTCP}[rng.Intn(3)],
			Fill:   rng.Intn(2) == 0,
			Key:    rng.Uint64(),
		}
		span := d.span()
		if rng.Intn(5) == 0 {
			// The retired neighborhood window was drawn here; drawing and
			// discarding it keeps every later configuration where it was.
			rng.Int63n(int64(span / 4))
		}
		for range 4 {
			vr := eqVariant{
				shards:  1 + rng.Intn(4),
				batch:   []int{0, 1, 2, 7, 64, 1 << 20}[rng.Intn(6)],
				noTable: rng.Intn(4) == 0,
			}
			var ats []time.Duration
			for n := rng.Intn(3); n > 0; n-- {
				ats = append(ats, 1+time.Duration(rng.Int63n(int64(span*3/2))))
			}
			slices.Sort(ats)
			for _, at := range slices.Compact(ats) {
				vr.cuts = append(vr.cuts, eqCut{at, cutKind(rng.Intn(3))})
			}
			d.variants = append(d.variants, vr)
		}
		draws = append(draws, d)
	}
	return draws
}

// TestCampaignEquivalence is the campaign's determinism contract (see
// the package comment) as one property. Every variant of every draw —
// shard count, send batch, plan table on or off, any chain of
// interrupts continued by Rewind on the live connections or onto fresh
// ones, or by Resume on a fresh universe —
// equals the serial reference run (1 shard, batch 1, table on,
// uninterrupted) in store bytes, graph export, progress stream and
// counters. The documented exception compares against the uninterrupted
// batch-1 run at the variant's own shard count: fill mode whose
// reference tripped a rate limiter.
// Every run's progress series is monotone and ends on its totals, every
// cut leaves a valid artifact, and every hop the reference stores is
// the router the simulator's ground truth puts at that TTL. The
// configurations of the matrices it replaced run as its fixed rows,
// each under its matrix's name.
//
// A failing draw replays alone: go test -run 'TestCampaignEquivalence/draw=N$'.
func TestCampaignEquivalence(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	draws := equivalenceDraws()
	rows := slices.Collect(maps.Values(matrixRows))
	variants, cuts := assertCoverage(t, append(rows, draws...))
	for i, d := range draws {
		t.Run(fmt.Sprintf("draw=%d", i), func(t *testing.T) {
			t.Log(d)
			d.check(t)
		})
	}
	t.Logf("%d draws, %d variants, %d cuts", len(draws), variants, cuts)
}

// assertCoverage fails unless the draws, with the matrix rows, cover every regime the contract
// speaks of — cuts only where they must land — and counts their variants
// and cuts.
func assertCoverage(t *testing.T, draws []eqDraw) (variants, cuts int) {
	t.Helper()
	seen := map[string]int{}
	for _, d := range draws {
		seen[fmt.Sprintf("proto %d", cmp.Or(d.cfg.Proto, wire.ProtoICMPv6))]++
		if d.saturate {
			seen[fmt.Sprintf("saturated fill=%v", d.cfg.Fill)]++
		}
		for _, vr := range d.variants {
			variants++
			seen[fmt.Sprintf("%d shards", vr.shards)]++
			if vr.noTable {
				seen["table off"]++
			}
			for _, c := range vr.cuts {
				cuts++
				if !d.lands(c) {
					continue
				}
				seen[c.kind.String()]++
				if c.at > d.span() {
					seen["drain-tail cut"]++
				}
			}
		}
	}
	for _, regime := range []string{"1 shards", "2 shards", "3 shards", "4 shards",
		fmt.Sprintf("proto %d", wire.ProtoICMPv6), fmt.Sprintf("proto %d", wire.ProtoUDP), fmt.Sprintf("proto %d", wire.ProtoTCP),
		"saturated fill=true", "saturated fill=false", "table off",
		cutRewind.String(), cutFailover.String(), cutResume.String(), "drain-tail cut"} {
		if seen[regime] == 0 {
			t.Errorf("no draw covers %s", regime)
		}
	}
	t.Logf("regimes: %v", seen)
	return variants, cuts
}

// check runs the draw's reference and every variant against it.
func (d eqDraw) check(t *testing.T) {
	u, _ := d.universe() // throwaway: target sampling is pure
	d.cfg.Targets = gatewayTargets(u, d.targets, d.seed)
	tap := &probeTap{sent: make(map[probeAt][]byte)}
	ref, dropped := d.run(t, eqVariant{shards: 1, batch: 1}, nil, tap)
	assertTruth(t, tap, ref.store, d.cfg.Targets)
	if len(d.pins) > 0 {
		pinDigest(t, "reference store", ref.store.AppendBinary(nil), d.pins[0])
		pinDigest(t, "reference graph", ref.graph, d.pins[1])
		pinDigest(t, "reference progress", ref.progress, d.pins[2])
	}
	if d.exact && d.saturate && dropped == 0 {
		t.Fatal("reference run never tripped a rate limiter; the row is not testing saturation")
	}
	ownShards := d.cfg.Fill && dropped > 0 && !d.exact
	own := map[int]ckptRun{1: ref}
	for i, vr := range d.variants {
		label := fmt.Sprintf("variant %d %+v", i, vr)
		got, _ := d.run(t, vr, nil, nil)
		if len(got.stats.PerShard) != vr.shards {
			t.Fatalf("%s: %d shard records", label, len(got.stats.PerShard))
		}
		want := ref
		if ownShards {
			if _, ok := own[vr.shards]; !ok {
				own[vr.shards], _ = d.run(t, eqVariant{shards: vr.shards, batch: 1}, nil, nil)
			}
			want = own[vr.shards]
			if g, w := got.stats.ProbesSent-got.stats.Fills, ref.stats.ProbesSent-ref.stats.Fills; g != w {
				t.Fatalf("%s: %d permutation probes sent, the serial run %d", label, g, w)
			}
		}
		assertRunsEqual(t, label, got, want)
	}
}

// run runs the draw's campaign as vr asks — a new campaign, or given an
// artifact Resume(art) on a fresh universe — through every cut, and
// returns the finished run with the rate-limit drops of the last
// universe it probed. At each cut the run must return no store, fold a
// partial one and checkpoint an artifact InspectCheckpoint accepts.
// With a tap, the campaign's one connection sends through it.
func (d eqDraw) run(t *testing.T, vr eqVariant, art []byte, tap *probeTap) (ckptRun, int64) {
	t.Helper()
	var (
		u        *netsim.Universe
		conns    ConnFactory
		camp     *Campaign
		progress bytes.Buffer
		err      error
	)
	open := func() {
		var v *netsim.Vantage
		u, v = d.universe()
		if vr.noTable {
			t.Cleanup(v.SuspendPlanCache())
		}
		conns = func(_ int, start time.Duration) probe.Conn {
			if tap != nil {
				tap.Vantage = v.Clone(start)
				return tap
			}
			return v.Clone(start)
		}
	}
	for i := 0; ; i++ {
		rc := ResumeConfig{Telemetry: telemetry.NewRegistry(), ProgressWriter: &progress}
		if i < len(vr.cuts) {
			rc.InterruptAt = vr.cuts[i].at
		}
		switch {
		case camp != nil && vr.cuts[i-1].kind == cutRewind:
			camp, err = camp.Rewind(rc, nil)
		case camp != nil && vr.cuts[i-1].kind == cutFailover:
			camp, err = camp.Rewind(rc, conns)
		case art != nil:
			open()
			camp, err = Resume(art, rc, conns)
		default:
			open()
			cfg := d.cfg
			cfg.Batch = vr.batch
			camp = NewCampaign(CampaignConfig{Config: cfg, Shards: vr.shards, RecordPaths: true,
				Telemetry: rc.Telemetry, ProgressWriter: rc.ProgressWriter, InterruptAt: rc.InterruptAt}, conns)
		}
		if err != nil {
			t.Fatalf("%+v: continuing after cut %d: %v", vr, i-1, err)
		}
		store, stats, err := camp.Run()
		if err == nil {
			if i < len(vr.cuts) && d.lands(vr.cuts[i]) {
				t.Fatalf("%+v: finished before the cut at %v", vr, vr.cuts[i].at)
			}
			run := ckptRun{store: store, graph: graphNDJSON(t, store), progress: progress.Bytes(), stats: stats}
			assertProgress(t, fmt.Sprintf("%+v", vr), run)
			return run, u.Stats.RateLimitDropped
		}
		if !errors.Is(err, ErrInterrupted) {
			t.Fatalf("%+v: cut %d: got err %v, want ErrInterrupted", vr, i, err)
		}
		if store != nil || camp.MergedStore() == nil {
			t.Fatalf("%+v: cut %d: Run returned a store, or MergedStore none", vr, i)
		}
		if art, err = camp.Checkpoint(); err != nil {
			t.Fatalf("%+v: cut %d: checkpoint: %v", vr, i, err)
		}
		if _, err := InspectCheckpoint(art); err != nil {
			t.Fatalf("%+v: cut %d: artifact invalid: %v", vr, i, err)
		}
	}
}

// assertProgress: a run's progress series is monotone, and its last
// point lands on the campaign totals.
func assertProgress(t *testing.T, label string, r ckptRun) {
	t.Helper()
	pts := r.stats.Progress
	if len(pts) < 8 {
		t.Fatalf("%s: progress series has only %d points", label, len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].At <= pts[i-1].At || pts[i].Probes < pts[i-1].Probes || pts[i].Interfaces < pts[i-1].Interfaces {
			t.Fatalf("%s: series not monotone at point %d: %+v after %+v", label, i, pts[i], pts[i-1])
		}
	}
	if last := pts[len(pts)-1]; last.Probes != r.stats.ProbesSent || last.Interfaces != r.store.NumInterfaces() || last.At != r.stats.Elapsed {
		t.Fatalf("%s: last point %+v, campaign %d probes, %d interfaces, elapsed %v",
			label, last, r.stats.ProbesSent, r.store.NumInterfaces(), r.stats.Elapsed)
	}
}

// saturationVantage builds a universe whose ICMPv6 rate limiters an
// 8 kpps campaign actually exhausts: shallow aggressive buckets against
// an unpaced probe train through a shared access chain — the regime
// where shard-window bucket priming and checkpointed bucket state earn
// their keep. campaignUniverse is its non-saturating counterpart.
func saturationVantage(seed int64) (*netsim.Universe, *netsim.Vantage) {
	cfg := netsim.TestConfig(seed)
	cfg.AggressivePercent = 60
	cfg.RateLimitTokensMin = 20
	cfg.RateLimitTokensMax = 80
	cfg.RateLimitBurstMin = 4
	cfg.RateLimitBurstMax = 16
	u := netsim.NewUniverse(cfg)
	return u, u.NewVantage(netsim.VantageSpec{Name: "US-EDU-1", Kind: netsim.KindUniversity, ChainLen: 4})
}

func saturationCfg(targets []netip.Addr) Config {
	return Config{Targets: targets, PPS: 8000, MaxTTL: 12, Key: 31, Fill: true}
}

// satReference runs the uninterrupted saturating campaign at the given
// cell, returning the run artifacts and the universe's rate-limit drop
// counter.
func satReference(t *testing.T, seed int64, targets []netip.Addr, shards, batch int) (ckptRun, int64) {
	t.Helper()
	return eqDraw{seed: seed, saturate: true, cfg: saturationCfg(targets)}.run(t, eqVariant{shards: shards, batch: batch}, nil, nil)
}

// probeTap keeps the first probe a prober sends per (destination, hop
// limit), so a test can ask the simulator for that probe's true path.
type probeTap struct {
	*netsim.Vantage
	sent map[probeAt][]byte
}

type probeAt struct {
	dst netip.Addr
	ttl uint8
}

func (p *probeTap) record(pkt []byte) {
	k := probeAt{dst: netip.AddrFrom16([16]byte(pkt[24:40])), ttl: pkt[7]}
	if _, ok := p.sent[k]; !ok {
		p.sent[k] = bytes.Clone(pkt)
	}
}

func (p *probeTap) Send(pkt []byte) error {
	p.record(pkt)
	return p.Vantage.Send(pkt)
}

func (p *probeTap) SendBatch(pkts [][]byte, gap time.Duration) (int, bool, error) {
	n, deliverable, err := p.Vantage.SendBatch(pkts, gap)
	for _, pkt := range pkts[:n] {
		p.record(pkt)
	}
	return n, deliverable, err
}

// TestStoredHopsMatchTruthPath checks a fault-free campaign on the small
// universe, driven by the engine directly, against the simulator's
// ground truth (see assertTruth).
func TestStoredHopsMatchTruthPath(t *testing.T) {
	u, v := testVantage(t, 5)
	tap := &probeTap{Vantage: v, sent: make(map[probeAt][]byte)}
	cfg := Config{Targets: gatewayTargets(u, 60, 5), PPS: 2000, MaxTTL: 16, Key: 3, Fill: true}
	st := probe.NewStore(true)
	if _, err := New(tap, cfg).Run(st); err != nil {
		t.Fatal(err)
	}
	if hops, traces := assertTruth(t, tap, st, cfg.Targets); hops < 10*traces {
		t.Fatalf("checked only %d hops over %d traces", hops, traces)
	}
}

// assertTruth checks a store against the simulator's ground truth: every
// hop it holds at TTL t is the router TruthPath puts at position t-1 of
// the path of the probe sent to that target with hop limit t. Only Time
// Exceeded replies become hops, so a hop names the router where the
// probe expired. It returns how many hops over how many traces it
// checked.
func assertTruth(t *testing.T, tap *probeTap, st *probe.Store, targets []netip.Addr) (hops, traces int) {
	t.Helper()
	tab := st.AddrTable()
	for _, target := range targets {
		tr := st.Trace(target)
		if tr == nil {
			continue
		}
		traces++
		st.ForEachHop(tr, func(ttl uint8, id uint32) {
			hops++
			pkt := tap.sent[probeAt{target, ttl}]
			if pkt == nil {
				t.Errorf("%s: hop at TTL %d, but no probe was sent with that hop limit", target, ttl)
				return
			}
			path := tap.TruthPath(pkt)
			if int(ttl) > len(path) {
				t.Errorf("%s: hop at TTL %d beyond the %d-router true path", target, ttl, len(path))
				return
			}
			if got, want := tab.Addr(id), path[ttl-1]; got != want {
				t.Errorf("%s: hop at TTL %d is %s, the true path has %s", target, ttl, got, want)
			}
		})
	}
	if int64(hops) > st.TimeExceeded {
		t.Errorf("%d stored hops from %d Time Exceeded replies", hops, st.TimeExceeded)
	}
	if hops < traces || traces < len(targets)/2 {
		t.Fatalf("checked only %d hops over %d traces of %d targets", hops, traces, len(targets))
	}
	return hops, traces
}
