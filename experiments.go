package beholder

import (
	"context"
	"iter"
	"math/rand"
	"net/netip"
	"runtime"
	"sort"
	"strconv"

	"beholder/internal/analysis"
	"beholder/internal/core"
	"beholder/internal/graph"
	"beholder/internal/seeds"
	"beholder/internal/subnet"
	"beholder/internal/target"
)

// ExpOptions scales the experiment suite. The defaults regenerate every
// table and figure at campaign scale in about a minute of wall time;
// benchmarks use smaller scales.
type ExpOptions struct {
	Seed  int64   // determinism seed for topology, seeds, and campaigns
	Scale float64 // seed-list scale (1.0 = campaign scale)
	Small bool    // use the small universe (tests, quick benches)
	Rate  float64 // campaign probing rate in pps (default 1000)
	// Workers is the worker count of the campaign supervisor every
	// static campaign runs under, as in beholderd: how many of a batch's
	// campaigns (the Table 7 matrix, the graph study's vantages) probe
	// concurrently. Campaigns share one universe that is read-only on
	// the packet path (event counters are atomic) and each probes
	// through its own cloned vantage owning all mutable state, so they
	// race nothing and the rendered tables are identical at any worker
	// count. Default: GOMAXPROCS.
	Workers int
}

func (o *ExpOptions) setDefaults() {
	if o.Seed == 0 {
		o.Seed = 2018
	}
	if o.Scale <= 0 {
		o.Scale = 1.0
	}
	if o.Rate <= 0 {
		o.Rate = 1000
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
}

// Experiments regenerates the paper's evaluation. Each method returns a
// renderable Table or Figure; expensive intermediates (seed lists,
// target sets, the Table 7 campaign matrix) are computed once and
// shared. Its methods must not be called concurrently.
type Experiments struct {
	opt ExpOptions
	in  *Internet

	lists      map[string]seeds.List
	tumSubsets []seeds.Subset

	targetSets map[string]*target.Set

	campaigns map[string]*campResult // key: vantage + "/" + set name

	// graphs holds the graph study's per-vantage campaign graphs, in
	// vantageSpecs order, built once by graphCampaigns.
	graphs []*graph.Graph
}

// Renderable is either a Table or a Figure.
type Renderable interface{ Render() string }

// Table and Figure re-export the analysis result types.
type (
	Table  = analysis.Table
	Figure = analysis.Figure
)

// NewExperiments prepares a deterministic experiment suite.
func NewExperiments(opt ExpOptions) *Experiments {
	opt.setDefaults()
	var in *Internet
	if opt.Small {
		in = NewSmallInternet(opt.Seed)
	} else {
		in = NewInternet(opt.Seed)
	}
	return &Experiments{
		opt:        opt,
		in:         in,
		targetSets: make(map[string]*target.Set),
		campaigns:  make(map[string]*campResult),
	}
}

// Internet returns the experiment substrate.
func (e *Experiments) Internet() *Internet { return e.in }

func (e *Experiments) seedLists() map[string]seeds.List {
	if e.lists == nil {
		e.lists, e.tumSubsets = seeds.All(e.in.u, e.opt.Seed, seeds.Scale(e.opt.Scale))
	}
	return e.lists
}

// targetSet builds (and caches) one target set.
func (e *Experiments) targetSet(seedName string, zn int, synth target.Synth) *target.Set {
	spec := target.Spec{SeedName: seedName, ZN: zn, Synth: synth}
	if s, ok := e.targetSets[spec.Name()]; ok {
		return s
	}
	rng := rand.New(rand.NewSource(e.opt.Seed + int64(zn)))
	s := target.Build(e.seedLists()[seedName], spec, rng)
	e.targetSets[spec.Name()] = s
	return s
}

// campaignSetNames lists the Table 7 target sets in the paper's order
// (reverse sorted by yield there; ours carry the same membership).
var campaignSeeds = []string{"cdn-k32", "tum", "fdns_any", "dnsdb", "6gen", "cdn-k256", "caida", "fiebig"}

// vantageSpecs are the study's three vantage points. US-EDU-2's longer
// on-premise path reproduces its lower yield and longer median paths
// (Section 5.3).
var vantageSpecs = []struct {
	name, kind string
	chain      int
}{
	{"EU-NET", "hosting", 3},
	{"US-EDU-1", "university", 4},
	{"US-EDU-2", "university", 8},
}

// campResult is the retained summary of one (vantage, target set)
// campaign: everything Table 7 and Figures 6-8 need, without holding the
// full trace store.
type campResult struct {
	vantage  string
	setName  string
	targets  int
	stats    core.Stats
	progress []ProgressPoint // the discovery series Figure 7 plots
	ifaces   map[netip.Addr]struct{}
	pfxs     map[netip.Prefix]struct{}
	asns     map[uint32]struct{}
	reached  float64
	pathLens []int

	euiIfaces  int
	euiOffsets []int

	subnetLenHist [65]int // inferred minimum prefix length counts
	iaCount       int
}

// vantage attaches vantageSpecs[i] to the suite's universe.
func (e *Experiments) vantage(i int) *Vantage {
	vs := vantageSpecs[i]
	return e.in.NewVantageAt(vs.name, vs.kind, vs.chain)
}

// submission is one static campaign for supervise: the vantage it
// probes from, its targets, and its probing options (Rate zero means
// ExpOptions.Rate; supervise names the tenant and campaign).
type submission struct {
	v       *Vantage
	targets []netip.Addr
	opt     SubmitOptions
}

// supervise runs static campaigns the way beholderd runs them: under a
// campaign Scheduler on the suite's universe, Workers at a time. Every
// campaign probes from a clone of its vantage opened at virtual zero
// with pristine (clone-owned) router state, so the results are
// identical at any worker count. It yields them in submission order,
// each as soon as its campaign completes, so the caller's work on one
// overlaps the probing of the next. A campaign that does not complete
// panics, as an engine error would.
func (e *Experiments) supervise(subs []submission) iter.Seq2[int, *CampaignResult] {
	return func(yield func(int, *CampaignResult) bool) {
		s, err := e.in.NewScheduler(SchedulerOptions{
			Tenants:    []Tenant{{Name: "experiments"}},
			Workers:    e.opt.Workers,
			QueueLimit: len(subs),
		})
		if err != nil {
			panic("beholder: " + err.Error())
		}
		defer s.Drain(context.Background())
		hs := make([]*CampaignHandle, len(subs))
		for i, sub := range subs {
			sub.opt.Tenant, sub.opt.Name = "experiments", strconv.Itoa(i)
			if sub.opt.Rate == 0 {
				sub.opt.Rate = e.opt.Rate
			}
			if hs[i], err = s.Submit(sub.v, sub.targets, sub.opt); err != nil {
				panic("beholder: campaign rejected: " + err.Error())
			}
		}
		for i, h := range hs {
			<-h.Done()
			r := h.Result()
			if r.State != CampaignCompleted {
				panic("beholder: campaign " + r.State.String() + " (" + r.Reason + ")")
			}
			if !yield(i, r) {
				return
			}
		}
	}
}

// campCell names one cell of the campaign matrix.
type campCell struct {
	vspec int
	set   *target.Set
}

// runCampaign runs (or fetches) one cell of the campaign matrix.
func (e *Experiments) runCampaign(vspec int, set *target.Set) *campResult {
	return e.runCampaigns([]campCell{{vspec, set}})[0]
}

// runCampaigns runs the matrix cells not yet cached — single-shard
// ICMPv6 Yarrp6 campaigns at maxTTL 16 with fill, under the supervisor
// — and returns every cell's summary in cell order.
func (e *Experiments) runCampaigns(cells []campCell) []*campResult {
	key := func(c campCell) string { return vantageSpecs[c.vspec].name + "/" + c.set.Name() }
	var todo []campCell
	var subs []submission
	for _, c := range cells {
		if _, ok := e.campaigns[key(c)]; !ok {
			todo = append(todo, c)
			subs = append(subs, submission{e.vantage(c.vspec), c.set.Targets.Addrs(),
				SubmitOptions{MaxTTL: 16, Fill: true, Key: uint64(e.opt.Seed) ^ uint64(c.vspec)<<32}})
		}
	}
	for i, r := range e.supervise(subs) {
		c := todo[i]
		e.campaigns[key(c)] = e.summarize(vantageSpecs[c.vspec].name, c.set, r, subs[i].v.v.AS().ASN)
	}
	out := make([]*campResult, len(cells))
	for i, c := range cells {
		out[i] = e.campaigns[key(c)]
	}
	return out
}

func (e *Experiments) summarize(vantage string, set *target.Set, r *CampaignResult, vantageASN uint32) *campResult {
	table, store := e.in.u.Table(), r.Store
	c := &campResult{
		vantage:  vantage,
		setName:  set.Name(),
		targets:  set.Targets.Len(),
		stats:    r.Stats.Stats,
		progress: r.Stats.Progress,
		ifaces:   make(map[netip.Addr]struct{}),
		pfxs:     make(map[netip.Prefix]struct{}),
		asns:     make(map[uint32]struct{}),
	}
	store.ForEachInterface(func(a netip.Addr) {
		c.ifaces[a] = struct{}{}
		if rt, ok := table.Lookup(a); ok {
			c.pfxs[rt.Prefix] = struct{}{}
			c.asns[rt.Origin] = struct{}{}
		}
	})
	c.reached = analysis.ReachedTargetASNFraction(store, table)
	c.pathLens = analysis.PathLengths(store)
	c.euiIfaces = analysis.CountEUIInterfaces(store)
	c.euiOffsets = analysis.EUIOffsets(store)

	// Subnet inference per campaign (folded into Figure 8).
	res := subnet.Discover(store, table, vantageASN)
	for _, cand := range res.Candidates {
		if cand.MinLen >= 24 && cand.MinLen <= 64 {
			c.subnetLenHist[cand.MinLen]++
		}
	}
	c.iaCount = res.IAHackCount
	return c
}

// z64Campaigns runs (or fetches) the EU-NET z64 campaign for every
// Table 7 seed, the inputs to Figures 6, 7, and 8.
func (e *Experiments) z64Campaigns() []*campResult {
	cells := make([]campCell, 0, len(campaignSeeds))
	for _, s := range campaignSeeds {
		cells = append(cells, campCell{0, e.targetSet(s, 64, target.FixedIID)})
	}
	return e.runCampaigns(cells)
}

// sortedNames returns map keys in sorted order (stable table rows).
func sortedNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// pct formats a fraction as a percentage string.
func pct(f float64) string {
	return fmtF(f*100, 1) + "%"
}

func fmtF(f float64, prec int) string {
	switch prec {
	case 0:
		return strconv.Itoa(int(f + 0.5))
	case 1:
		v := int(f*10 + 0.5)
		return strconv.Itoa(v/10) + "." + strconv.Itoa(v%10)
	default:
		v := int(f*100 + 0.5)
		return strconv.Itoa(v/100) + "." + pad2(v%100)
	}
}

func pad2(v int) string {
	if v < 10 {
		return "0" + strconv.Itoa(v)
	}
	return strconv.Itoa(v)
}

// kfmt renders counts compactly (12.4k, 1.3M) the way the paper's
// tables do.
func kfmt(n int64) string {
	switch {
	case n >= 1_000_000:
		return fmtF(float64(n)/1e6, 1) + "M"
	case n >= 1_000:
		return fmtF(float64(n)/1e3, 1) + "k"
	default:
		return strconv.Itoa(int(n))
	}
}
