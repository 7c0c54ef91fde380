// Package target implements the paper's three-step target generation
// pipeline (Section 3.3): seed addresses and prefixes are mapped to a
// uniform aggregation level by the zn prefix transformation, the
// transformed prefixes are deduplicated, and one probe target is
// synthesized per unique prefix by interface-identifier synthesis.
//
// The pipeline is deterministic given its *rand.Rand: transformed
// prefixes are sorted before any random IIDs are drawn, so the same
// seed list and seed value always yield the identical target set
// regardless of input ordering. Seed lists are sorted sets, and every
// step keeps their order: masking to /zn is monotone, and for zn ≤ 64
// an IID below distinct /zn bases keeps them distinct and in order. So
// a set builds in linear passes over address keys (ipv6.SortKeys finds
// them sorted); only zn > 64, where the IID overwrites prefix bits, pays
// for a sort.
package target

import (
	"math/rand"
	"strconv"

	"beholder/internal/ipv6"
	"beholder/internal/seeds"
)

// Synth selects the interface-identifier synthesis method applied to
// each transformed prefix (Section 3.3).
type Synth uint8

// Synthesis methods.
const (
	// LowByte1 synthesizes the ::1 address beneath each prefix — the
	// conventional gateway/server numbering most likely to exist.
	LowByte1 Synth = iota
	// FixedIID synthesizes one fixed pseudo-random IID (FixedIIDValue)
	// beneath each prefix: almost surely unassigned, so probes traverse
	// the full path toward the subnet rather than stopping at a host.
	FixedIID
	// RandomIID synthesizes an independent random IID per prefix.
	RandomIID
	// Known probes the seed addresses verbatim, skipping transformation
	// and synthesis — the paper's known-address control.
	Known
)

func (s Synth) String() string {
	switch s {
	case LowByte1:
		return "lowbyte1"
	case FixedIID:
		return "fixediid"
	case RandomIID:
		return "randomiid"
	case Known:
		return "known"
	}
	return "unknown"
}

// FixedIIDValue is the fixed pseudo-random interface identifier used by
// the FixedIID synthesis. The value avoids the assigned-IID
// conventions the simulator (and the real Internet) use: it is not a
// small integer, not an embedded IPv4 address, and carries no EUI-64
// ff:fe marker.
const FixedIIDValue uint64 = 0x2b7e151628aed2a6

// Spec names one target set: the seed source, the zn transformation
// level, and the synthesis method.
type Spec struct {
	SeedName string
	ZN       int
	Synth    Synth
}

// Name returns the canonical set name, e.g. "caida-z64-fixediid".
// Known sets carry no transformation level.
func (s Spec) Name() string {
	if s.Synth == Known {
		return s.SeedName + "-known"
	}
	return s.SeedName + "-z" + strconv.Itoa(s.ZN) + "-" + s.Synth.String()
}

// Set is one generated target set.
type Set struct {
	Spec    Spec
	Targets *ipv6.Set
}

// Name returns the set's canonical name.
func (s *Set) Name() string { return s.Spec.Name() }

// Build runs the pipeline over one seed list. Address seeds are treated
// as /128 prefixes; prefix-only seeds (the CDN's kIP aggregates)
// contribute their prefixes directly. rng is consumed only by the
// RandomIID synthesis, in sorted-prefix order, keeping the output a
// pure function of (list, spec, rng seed).
func Build(list seeds.List, spec Spec, rng *rand.Rand) *Set {
	if spec.Synth == Known {
		return &Set{Spec: spec, Targets: knownTargets(list)}
	}
	keys := znBases(list, spec.ZN)
	for i := range keys {
		switch spec.Synth {
		case LowByte1:
			keys[i].Lo = 1
		case FixedIID:
			keys[i].Lo = FixedIIDValue
		default: // RandomIID
			keys[i].Lo = rng.Uint64()
		}
	}
	return &Set{Spec: spec, Targets: ipv6.SetOfKeys(keys)}
}

// znBases applies the zn prefix transformation to every seed and
// returns the unique transformed base addresses as sorted keys.
// Prefixes shorter than zn are extended (zero-filled); prefixes longer
// than zn aggregate up, so many seeds inside one /zn collapse to a
// single base — the knob Table 3 turns. A canonical prefix is zero past
// its length, so either way its base is its address masked to zn: the
// mask is monotone, so the sorted addresses and the sorted prefixes
// each give a sorted run, and the bases are their merge.
func znBases(list seeds.List, zn int) []ipv6.U128 {
	mask := ipv6.Mask(zn)
	var addrs, prefixes []ipv6.U128
	if list.Addrs != nil {
		addrs = make([]ipv6.U128, list.Addrs.Len())
		for i, k := range list.Addrs.Keys() {
			addrs[i] = k.And(mask)
		}
	}
	if list.Prefixes != nil {
		prefixes = make([]ipv6.U128, list.Prefixes.Len())
		for i, p := range list.Prefixes.Prefixes() {
			prefixes[i] = ipv6.FromAddr(p.Addr()).And(mask)
		}
	}
	switch {
	case prefixes == nil:
		return ipv6.SortKeys(addrs)
	case addrs == nil:
		return ipv6.SortKeys(prefixes)
	}
	return ipv6.MergeKeys(addrs, prefixes)
}

// knownTargets passes seed addresses through verbatim. Prefix-only
// lists degrade to the ::1 address of each aggregate.
func knownTargets(list seeds.List) *ipv6.Set {
	if list.Addrs != nil {
		return list.Addrs.Clone()
	}
	if list.Prefixes == nil {
		return ipv6.EmptySet()
	}
	keys := make([]ipv6.U128, list.Prefixes.Len())
	for i, p := range list.Prefixes.Prefixes() {
		keys[i] = ipv6.U128{Hi: ipv6.FromAddr(ipv6.PrefixBase(p)).Hi, Lo: 1}
	}
	return ipv6.SetOfKeys(keys)
}

// Combine unions several sets into one named set (the paper's
// "combined" and "total" rows). Membership is merged in one linear
// k-way pass over the sorted inputs.
func Combine(name string, zn int, synth Synth, sets ...*Set) *Set {
	targets := make([]*ipv6.Set, len(sets))
	for i, s := range sets {
		targets[i] = s.Targets
	}
	return &Set{
		Spec:    Spec{SeedName: name, ZN: zn, Synth: synth},
		Targets: ipv6.Union(targets...),
	}
}
