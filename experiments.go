package beholder

import (
	"math/rand"
	"net/netip"
	"runtime"
	"sort"
	"sync"
	"time"

	"beholder/internal/analysis"
	"beholder/internal/core"
	"beholder/internal/graph"
	"beholder/internal/netsim"
	"beholder/internal/probe"
	"beholder/internal/seeds"
	"beholder/internal/subnet"
	"beholder/internal/target"
	"beholder/internal/wire"
)

// ExpOptions scales the experiment suite. The defaults regenerate every
// table and figure at campaign scale in about a minute of wall time;
// benchmarks use smaller scales.
type ExpOptions struct {
	Seed  int64   // determinism seed for topology, seeds, and campaigns
	Scale float64 // seed-list scale (1.0 = campaign scale)
	Small bool    // use the small universe (tests, quick benches)
	Rate  float64 // campaign probing rate in pps (default 1000)
	// Workers bounds how many campaign-matrix cells (Table 7, Figures
	// 6/7) run concurrently. Cells share one universe that is read-only
	// on the packet path (event counters are atomic) and each probes
	// through its own cloned vantage owning all mutable state, so cells
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
// shared.
type Experiments struct {
	opt ExpOptions
	in  *Internet

	// mu guards the lazily built caches below; campaign-matrix workers
	// populate them concurrently.
	mu         sync.Mutex
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
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.seedListsLocked()
}

func (e *Experiments) seedListsLocked() map[string]seeds.List {
	if e.lists == nil {
		e.lists, e.tumSubsets = seeds.All(e.in.u, e.opt.Seed, seeds.Scale(e.opt.Scale))
	}
	return e.lists
}

// targetSet builds (and caches) one target set.
func (e *Experiments) targetSet(seedName string, zn int, synth target.Synth) *target.Set {
	spec := target.Spec{SeedName: seedName, ZN: zn, Synth: synth}
	e.mu.Lock()
	defer e.mu.Unlock()
	if s, ok := e.targetSets[spec.Name()]; ok {
		return s
	}
	rng := rand.New(rand.NewSource(e.opt.Seed + int64(zn)))
	s := target.Build(e.seedListsLocked()[seedName], spec, rng)
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
	name  string
	kind  netsim.ASKind
	chain int
}{
	{"EU-NET", netsim.KindHosting, 3},
	{"US-EDU-1", netsim.KindUniversity, 4},
	{"US-EDU-2", netsim.KindUniversity, 8},
}

// campResult is the retained summary of one (vantage, target set)
// campaign: everything Table 7 and Figures 6-8 need, without holding the
// full trace store.
type campResult struct {
	vantage  string
	setName  string
	traces   int64
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

// runCampaign executes one single-shard Yarrp6 campaign with path
// recording and summarizes it. Each campaign probes through a cloned
// vantage with a private clock opened at zero and pristine
// (vantage-owned) token buckets — exactly the conditions the old
// shared-universe-plus-Reset regime provided — while the universe itself
// is shared read-only, so independent matrix cells run concurrently
// without rebuilding topology.
func (e *Experiments) runCampaign(vspec int, set *target.Set, proto uint8, maxTTL uint8, fill bool) *campResult {
	key := vantageSpecs[vspec].name + "/" + set.Name()
	e.mu.Lock()
	if c, ok := e.campaigns[key]; ok {
		e.mu.Unlock()
		return c
	}
	e.mu.Unlock()
	u := e.in.u
	v := u.NewVantage(netsim.VantageSpec{
		Name:     vantageSpecs[vspec].name,
		Kind:     vantageSpecs[vspec].kind,
		ChainLen: vantageSpecs[vspec].chain,
	}).Clone(0)
	camp := core.NewCampaign(core.CampaignConfig{
		Config: core.Config{
			Targets: set.Targets.Addrs(),
			PPS:     e.opt.Rate,
			MaxTTL:  maxTTL,
			Proto:   proto,
			Key:     uint64(e.opt.Seed) ^ uint64(vspec)<<32,
			Fill:    fill,
		},
		RecordPaths: true,
	}, func(int, time.Duration) probe.Conn { return v })
	store, stats, err := camp.Run()
	if err != nil {
		panic("beholder: campaign failed: " + err.Error())
	}
	c := e.summarize(u, vantageSpecs[vspec].name, set, store, stats.Stats, v.AS().ASN)
	c.progress = stats.Progress
	e.mu.Lock()
	e.campaigns[key] = c
	e.mu.Unlock()
	return c
}

// campCell names one cell of the campaign matrix.
type campCell struct {
	vspec int
	set   *target.Set
}

// runCampaigns executes the given matrix cells, up to Workers at a time,
// returning results in cell order. Cells are independent — a shared
// read-only universe with per-cell cloned vantages, cache writes under
// the mutex — so the result is identical at any worker count.
func (e *Experiments) runCampaigns(cells []campCell) []*campResult {
	out := make([]*campResult, len(cells))
	workers := e.opt.Workers
	if workers > len(cells) {
		workers = len(cells)
	}
	if workers <= 1 {
		for i, c := range cells {
			out[i] = e.runCampaign(c.vspec, c.set, wire.ProtoICMPv6, 16, true)
		}
		return out
	}
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i] = e.runCampaign(cells[i].vspec, cells[i].set, wire.ProtoICMPv6, 16, true)
			}
		}()
	}
	for i := range cells {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out
}

func (e *Experiments) summarize(u *netsim.Universe, vantage string, set *target.Set, store *probe.Store, stats core.Stats, vantageASN uint32) *campResult {
	table := u.Table()
	c := &campResult{
		vantage: vantage,
		setName: set.Name(),
		traces:  int64(set.Targets.Len()),
		targets: set.Targets.Len(),
		stats:   stats,
		ifaces:  make(map[netip.Addr]struct{}),
		pfxs:    make(map[netip.Prefix]struct{}),
		asns:    make(map[uint32]struct{}),
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
	res := subnet.Discover(store, table, vantageASN, subnet.DefaultParams())
	for _, cand := range res.Candidates {
		if cand.MinLen >= 24 && cand.MinLen <= 64 {
			c.subnetLenHist[cand.MinLen]++
		}
	}
	c.iaCount = res.IAHackCount
	return c
}

// z64Campaigns runs (or fetches) the EU-NET z64 campaign for every
// Table 7 seed, the inputs to Figures 6, 7, and 8. Uncached cells run
// concurrently, up to Workers at a time.
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
		return itoa(int(f + 0.5))
	case 1:
		v := int(f*10 + 0.5)
		return itoa(v/10) + "." + itoa(v%10)
	default:
		v := int(f*100 + 0.5)
		return itoa(v/100) + "." + pad2(v%100)
	}
}

func itoa(v int) string {
	if v < 0 {
		return "-" + itoa(-v)
	}
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func pad2(v int) string {
	if v < 10 {
		return "0" + itoa(v)
	}
	return itoa(v)
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
		return itoa(int(n))
	}
}
