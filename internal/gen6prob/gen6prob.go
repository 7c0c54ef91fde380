// Package gen6prob implements probabilistic prefix-tree target
// generation: the adaptive half of the paper's target-generation study.
//
// Where 6Gen (internal/sixgen) enumerates candidate addresses from seed
// clusters once, up front, gen6prob keeps a 16-ary nybble trie over the
// /64 prefix space and samples targets from it epoch by epoch,
// descending one nybble at a time with probability proportional to
// accumulated node weight. Sampling stops at the /64 boundary and
// synthesizes the low-byte ::1 interface identifier — the paper's
// best-yield synthesis (Section 3.3) — so every candidate lands on the
// address most likely to answer inside its prefix. Three signals shape
// the weights:
//
//   - Seeds: every observed address inserts its nybble path, weighted
//     by its 6Gen cluster's density — the same prior that orders 6Gen
//     enumeration, reused as the trie's starting distribution.
//   - Exploration: at every node, nybble values some compatible
//     cluster actually observed at that position carry a small
//     implicit weight even before any child exists there, so sampling
//     can leave the seed set without wandering into unrouted space —
//     this is the generative step.
//   - Reward: after each probing epoch, targets whose traces revealed
//     interfaces never seen before feed their discovery count back
//     along the leading levels of their nybble paths (the covering
//     /48), pulling future samples toward regions that
//     keep answering — and, because the reward stops above the /64
//     level, toward fresh sibling prefixes inside those regions
//     rather than back to already-probed leaves. Aliased prefixes
//     (APD verdicts) kill their subtrees outright.
//
// All weights are integers and the sampler draws from a counter-mode
// splitmix64 generator, so generation is exactly reproducible from
// (seeds, config, state): equal feedback yields equal batches on any
// platform, which is what lets an adaptive campaign stay byte-identical
// at any shard count and batch size. The complete source — seeds and
// config beside the trie, RNG counter and emitted set — serializes into
// a compact blob for mid-adaptation checkpointing.
package gen6prob

import (
	"net/netip"
	"sort"

	"beholder/internal/core"
	"beholder/internal/ipv6"
	"beholder/internal/probe"
	"beholder/internal/sixgen"
)

// nybbleDepth is the trie depth: one level per nybble of an address.
const nybbleDepth = 32

// prefixDepth is the sampling depth: candidates are drawn as /64
// prefixes (16 nybbles) and completed with the low-byte ::1 IID.
const prefixDepth = 16

// The sampler's fixed tuning.
const (
	// seedWeight is the per-node weight each seed insertion adds, scaled
	// by the seed's cluster-density rank. It dominates exploreWeight so
	// the sampler drains the observed (highest-yield) /64s before
	// generating fresh ones.
	seedWeight = 4096
	// exploreWeight is the implicit weight of each cluster-observed but
	// unexpanded nybble value at depths at or below rewardDepth — the
	// fine-grained levels where sibling subnets of observed LANs live.
	// Above rewardDepth the implicit weight is 1: shallow divergence
	// compounds the per-level provisioning odds against the probe, so
	// exploration concentrates near the /64 boundary.
	exploreWeight = 4
	// rewardDepth is how many leading nybble levels a reward insertion
	// credits (12: the /48): rewards reinforce the covering region, not
	// the exact already-probed leaf, so feedback pulls sampling toward
	// fresh sibling prefixes inside productive regions.
	rewardDepth = 12
	// maxMisses bounds consecutive rejected samples (duplicates or pruned
	// dead ends) before an epoch batch is cut short.
	maxMisses = 64
	// maxClusterSpan caps a density-prior cluster's pattern size; the
	// prior clusters seeds in 6Gen's tight mode.
	maxClusterSpan = 1 << 20
)

// Config parameterizes a Source.
type Config struct {
	// Key seeds the sampler; equal keys and seeds generate equal series.
	Key uint64
	// RewardWeight multiplies the novel-interface count a target's trace
	// feeds back along its path. Default 32.
	RewardWeight uint64
	// AliasMinHits is the fully-responsive-target count per /64 that
	// nominates the prefix for alias detection (AliasCandidates). Default
	// 1 — the sampler probes one low-byte address per /64; negative
	// disables nomination.
	AliasMinHits int
}

// setDefaults fills zero fields and folds every value that behaves like
// another onto one representative, so a configuration serializes
// canonically.
func (c *Config) setDefaults() {
	if c.RewardWeight == 0 {
		c.RewardWeight = 32
	}
	if c.AliasMinHits == 0 {
		c.AliasMinHits = 1
	} else if c.AliasMinHits < 0 {
		c.AliasMinHits = -1
	}
}

// clusters builds the density prior from ascending seeds: 6Gen's
// tight-mode clusters, densest first.
func clusters(seeds []netip.Addr) []*sixgen.Cluster {
	return sixgen.Clusters(seeds, sixgen.Config{Mode: sixgen.Tight, MaxClusterSpan: maxClusterSpan})
}

// node is one trie node; children index by the nybble value at the
// node's depth.
type node struct {
	weight   uint64
	dead     bool // aliased subtree: weight 0, never re-entered
	spent    bool // /64 already emitted: never sampled again
	children [16]*node
}

// Source is a serializable probabilistic generator implementing
// core.TargetSource.
type Source struct {
	cfg      Config
	seeds    []netip.Addr // ascending; what clusters is rebuilt from
	clusters []*sixgen.Cluster
	root     *node
	emitted  map[netip.Addr]struct{}
	ctr      uint64 // RNG counter; the only sampler state
}

// Compile-time check: Source streams targets into adaptive campaigns.
var _ core.TargetSource = (*Source)(nil)

// New builds a source from observed seed addresses. The trie starts as
// the seeds' nybble paths weighted by cluster density; ongoing feedback
// reshapes it between epochs.
func New(seeds []netip.Addr, cfg Config) *Source {
	cfg.setDefaults()
	sorted := make([]netip.Addr, len(seeds))
	for i, a := range seeds {
		sorted[i] = netip.AddrFrom16(a.As16()) // the form a restored seed takes
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Less(sorted[j]) })
	s := &Source{
		cfg:      cfg,
		seeds:    sorted,
		clusters: clusters(sorted),
		root:     &node{},
		emitted:  make(map[netip.Addr]struct{}),
	}
	// Density-sorted clusters: rank 0 is densest. Seed weight decays
	// with rank so the densest regions start with the most probability
	// mass, mirroring 6Gen's enumeration order.
	rankOf := make(map[*sixgen.Cluster]int, len(s.clusters))
	for i, c := range s.clusters {
		rankOf[c] = i
	}
	for _, a := range sorted {
		c := s.clusterOf(a)
		w := uint64(seedWeight)
		if c != nil {
			// Halve per density rank, floored at a sixteenth of the full
			// weight: density orders the drain, but every observed /64
			// still outranks every unobserved one by a wide margin.
			const floor = max(seedWeight/16, 2*exploreWeight)
			for r := rankOf[c]; r > 0 && w/2 >= floor; r-- {
				w /= 2
			}
		}
		s.insert(a, w)
	}
	return s
}

// clusterOf returns the first (densest) cluster whose pattern covers a.
func (s *Source) clusterOf(a netip.Addr) *sixgen.Cluster {
	nyb := sixgen.Nybbles(a)
	for _, c := range s.clusters {
		ok := true
		for i, v := range nyb {
			if c.Mask(i)&(1<<v) == 0 {
				ok = false
				break
			}
		}
		if ok {
			return c
		}
	}
	return nil
}

// insert adds w to every node along a's nybble path, creating nodes as
// needed.
func (s *Source) insert(a netip.Addr, w uint64) {
	s.insertTo(a, w, nybbleDepth)
}

// insertTo adds w along the first depth levels of a's nybble path.
func (s *Source) insertTo(a netip.Addr, w uint64, depth int) {
	nyb := sixgen.Nybbles(a)
	n := s.root
	n.weight += w
	for d := 0; d < depth; d++ {
		v := nyb[d]
		if n.children[v] == nil {
			n.children[v] = &node{}
		}
		n = n.children[v]
		n.weight += w
	}
}

// prune kills the subtree under pfx: its weight stops counting and the
// sampler never descends into it again. Prefix lengths round down to
// the nybble boundary.
func (s *Source) prune(pfx netip.Prefix) {
	if !pfx.Addr().Is6() || pfx.Addr().Is4In6() {
		return
	}
	levels := pfx.Bits() / 4
	if levels > nybbleDepth {
		levels = nybbleDepth
	}
	nyb := sixgen.Nybbles(pfx.Addr())
	n := s.root
	for d := 0; d < levels; d++ {
		n = n.children[nyb[d]]
		if n == nil {
			return // nothing generated there yet; nothing to kill
		}
	}
	n.dead = true
}

// next is the counter-mode splitmix64 draw — the sampler's only
// randomness, reproducible from (Key, ctr) alone.
func (s *Source) next() uint64 {
	s.ctr++
	z := s.cfg.Key + s.ctr*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// sample draws one candidate: 16 weighted nybble choices from the root
// pick a /64 prefix, creating exploration nodes as the walk leaves
// charted territory, and the low-byte ::1 IID completes the address.
// ok is false when the walk dead-ends (all weight pruned).
func (s *Source) sample() (netip.Addr, bool) {
	// active tracks the clusters whose patterns admit the path chosen so
	// far; their union mask at each depth is the exploration frontier.
	active := make([]*sixgen.Cluster, len(s.clusters))
	copy(active, s.clusters)
	var u ipv6.U128
	n := s.root
	for d := 0; d < prefixDepth; d++ {
		var explore uint16
		for _, c := range active {
			explore |= c.Mask(d)
		}
		ew := implicitWeight(d)
		var total uint64
		for v := 0; v < 16; v++ {
			total += s.valueWeight(n, uint8(v), explore, ew)
		}
		if total == 0 {
			return netip.Addr{}, false
		}
		r := s.next() % total
		var pick uint8
		for v := 0; v < 16; v++ {
			w := s.valueWeight(n, uint8(v), explore, ew)
			if r < w {
				pick = uint8(v)
				break
			}
			r -= w
		}
		if n.children[pick] == nil {
			n.children[pick] = &node{weight: ew}
		}
		n = n.children[pick]
		// Narrow the cluster frontier to patterns admitting the pick.
		keep := active[:0]
		for _, c := range active {
			if c.Mask(d)&(1<<pick) != 0 {
				keep = append(keep, c)
			}
		}
		active = keep
		u.Hi |= uint64(pick) << (60 - 4*d)
	}
	u.Lo = 1
	return u.Addr(), true
}

// implicitWeight is the weight of an unexpanded cluster-observed nybble
// value at depth d: exploreWeight at the fine-grained levels at or
// below rewardDepth (sibling subnets of observed LANs, where a fresh
// prefix has one or two provisioning coin-flips against it), a token 1
// above (shallow divergence compounds the odds to near zero).
func implicitWeight(d int) uint64 {
	if d >= rewardDepth {
		return exploreWeight
	}
	return 1
}

// valueWeight is the sampling weight of nybble value v at node n: the
// child's accumulated weight when one exists (zero if pruned or already
// emitted), else the implicit exploration weight ew when some compatible
// cluster observed v.
func (s *Source) valueWeight(n *node, v uint8, explore uint16, ew uint64) uint64 {
	if c := n.children[v]; c != nil {
		if c.dead || c.spent {
			return 0
		}
		if c.weight == 0 && explore&(1<<v) != 0 {
			return ew
		}
		return c.weight
	}
	if explore&(1<<v) != 0 {
		return ew
	}
	return 0
}

// NextEpoch implements core.TargetSource: it folds the previous epoch's
// feedback into the trie, then samples up to want fresh targets.
func (s *Source) NextEpoch(epoch, want int, fb *core.Feedback) []netip.Addr {
	if fb != nil {
		s.applyFeedback(fb)
	}
	if want <= 0 {
		return nil
	}
	out := make([]netip.Addr, 0, want)
	misses := 0
	for len(out) < want && misses < maxMisses {
		a, ok := s.sample()
		if !ok {
			// Dead-ended walk (pruned or fully spent subtree): a retry
			// takes different branches, so only give up after maxMisses.
			misses++
			continue
		}
		if _, dup := s.emitted[a]; dup {
			misses++
			continue
		}
		s.emitted[a] = struct{}{}
		s.spend(a)
		out = append(out, a)
		misses = 0
	}
	return out
}

// spend marks a's /64 emitted: the leaf is never sampled again and its
// accumulated mass leaves every ancestor, so a region whose observed
// prefixes are exhausted stops attracting walks on stale seed weight and
// competes only through exploration and fresh reward.
func (s *Source) spend(a netip.Addr) {
	nyb := sixgen.Nybbles(a)
	var path [prefixDepth + 1]*node
	n := s.root
	path[0] = n
	for d := 0; d < prefixDepth; d++ {
		n = n.children[nyb[d]]
		if n == nil {
			return // not a sampled path (defensive; sample() creates it)
		}
		path[d+1] = n
	}
	w := n.weight
	n.spent = true
	n.weight = 0
	for d := 0; d < prefixDepth; d++ {
		if path[d].weight > w {
			path[d].weight -= w
		} else {
			path[d].weight = 0
		}
	}
}

// applyFeedback reshapes the trie from one epoch's results: aliased
// subtrees die, and every target whose trace surfaced interfaces absent
// from the pre-epoch accumulation rewards the leading rewardDepth
// levels of its path by the novel count.
func (s *Source) applyFeedback(fb *core.Feedback) {
	for _, pfx := range fb.Aliased {
		s.prune(pfx)
	}
	if fb.Store == nil {
		return
	}
	traces := fb.Store.Traces()
	// Store iteration order is unspecified; attribution must not depend
	// on it, so traces sort by target and each novel interface credits
	// the first target (in that order) whose trace carries it.
	sort.Slice(traces, func(i, j int) bool { return traces[i].Target.Less(traces[j].Target) })
	novel := make(map[netip.Addr]struct{})
	tab := fb.Store.AddrTable()
	for _, tr := range traces {
		var count uint64
		fb.Store.ForEachHop(tr, func(_ uint8, id uint32) {
			a := tab.Addr(id)
			if fb.Total != nil && fb.Total.AddrSeen(a) {
				return
			}
			if _, dup := novel[a]; dup {
				return
			}
			novel[a] = struct{}{}
			count++
		})
		if count > 0 {
			s.insertTo(tr.Target, count*s.cfg.RewardWeight, rewardDepth)
		}
	}
}

// AliasCandidates nominates /64 prefixes for alias-presumption testing:
// those where at least Config.AliasMinHits distinct probed targets
// reported the destination itself reachable — the fully-responsive
// signature of an aliased region. With low-byte sampling each /64
// carries one probed target, so the default of 1 nominates every reached
// prefix (APD's random-IID probes then separate genuine router LANs from
// aliased middleboxes). Results sort ascending for determinism.
func (s *Source) AliasCandidates(st *probe.Store) []netip.Prefix {
	k := s.cfg.AliasMinHits
	if st == nil || k <= 0 {
		return nil
	}
	counts := make(map[netip.Prefix]int)
	for _, tr := range st.Traces() {
		if !tr.Reached {
			continue
		}
		pfx, err := tr.Target.Prefix(64)
		if err != nil {
			continue
		}
		counts[pfx]++
	}
	var out []netip.Prefix
	for pfx, n := range counts {
		if n >= k {
			out = append(out, pfx)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr().Less(out[j].Addr()) })
	return out
}
