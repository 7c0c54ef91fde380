package seeds

import (
	"fmt"
	"math/rand"

	"beholder/internal/kip"
	"beholder/internal/netsim"
)

// source is one row of the seed-list registry: a list's name, the key of
// its RNG stream (seed*1315423911 + key) and its builder. Lists draw from
// their own streams, so one list built alone equals All's.
type source struct {
	name  string
	key   int64
	build func(b *builder, rng *rand.Rand) List
}

// registry holds every seed list. cdn-k32 and cdn-k256 share stream 5:
// one observation pass, published at two values of k.
var registry = []source{
	{"caida", 1, func(b *builder, rng *rand.Rand) List { return CAIDA(b.u, rng) }},
	{"fiebig", 2, func(b *builder, rng *rand.Rand) List { return Fiebig(b.u, rng, b.scale) }},
	{"fdns_any", 3, func(b *builder, rng *rand.Rand) List { return FDNS(b.u, rng, b.scale) }},
	{"dnsdb", 4, func(b *builder, rng *rand.Rand) List { return DNSDB(b.u, rng, b.scale) }},
	{"cdn-k32", 5, func(b *builder, rng *rand.Rand) List { return b.cdn(rng, 32) }},
	{"cdn-k256", 5, func(b *builder, rng *rand.Rand) List { return b.cdn(rng, 256) }},
	{"6gen", 6, func(b *builder, rng *rand.Rand) List { return SixGen(b.u, rng, b.scale) }},
	{"tum", 7, func(b *builder, rng *rand.Rand) (l List) { l, b.subsets = TUM(b.u, rng, b.scale); return l }},
	{"random", 8, func(b *builder, rng *rand.Rand) List {
		return Random(b.u, rng, scaled(25, b.scale)*b.u.Table().NumPrefixes())
	}},
}

// builder carries one generation's inputs and what its lists share: the
// CDN observation pass, made once, and TUM's inventory (Table 2).
type builder struct {
	u       *netsim.Universe
	scale   Scale
	cdnObs  []kip.Observation
	subsets []Subset
}

func (b *builder) build(src source, seed int64) List {
	return src.build(b, rand.New(rand.NewSource(seed*1315423911+src.key)))
}

// All generates every seed list, keyed by name. The TUM subset inventory
// is returned alongside (Table 2).
func All(u *netsim.Universe, seed int64, scale Scale) (map[string]List, []Subset) {
	b := &builder{u: u, scale: scale}
	lists := make(map[string]List, len(registry))
	for _, src := range registry {
		lists[src.name] = b.build(src, seed)
	}
	return lists, b.subsets
}

// Build generates the one seed list name, equal to All's entry, without
// building any other. An unknown name is refused before any generation.
func Build(u *netsim.Universe, seed int64, name string, scale Scale) (List, error) {
	for _, src := range registry {
		if src.name == name {
			return (&builder{u: u, scale: scale}).build(src, seed), nil
		}
	}
	return List{}, fmt.Errorf("seeds: unknown seed list %q", name)
}
