package main

import (
	"fmt"
	"math/rand"
	"net/netip"
	"strings"
	"time"

	"beholder"
	"beholder/internal/seeds"
	"beholder/internal/target"
)

// universeSeed is the topology seed of every universe, in-process and
// daemon. The run seed picks permutation keys, target subsets and tenant
// scripts (see deriveKey) while the topology stays this one: a new
// topology per seed moves probes_per_s by ~7 % and the yield by ~1 %,
// which would drown the bounds the seeds are there to test.
const universeSeed = 2018

// params sizes the workloads. fullParams is what the driver measures;
// toyParams is the smoke test's scale.
type params struct {
	small      bool // toy: every universe is the ~120-AS one
	maxTargets int  // toy: truncate every generated target set to this many (0: all)

	wideScale    float64 // wide-serial: tum z64 lowbyte1 seed-list scale
	shardedScale float64 // sharded-saturated: fdns_any z64 fixediid scale
	minWide      int64   // least probes a measured wide-serial op may send
	minSharded   int64   // same for sharded-saturated
	shards       int     // sharded-saturated shard count
	minOps       int     // least measured ops per in-process run

	burstPoolScale float64 // daemon-burst: target pool (small universe, tum)
	burstTargets   int     // explicit targets per burst campaign
	burstWarm      int     // discarded campaigns per client per instance
	burstInstances int     // fresh daemons per run (median across them)
	burstCheck     int     // every n-th campaign is compared with a solo run

	ckptScale  float64       // daemon-checkpointed: tum z64 lowbyte1 scale
	ckptShards int           // shards per checkpointed campaign
	ckptEvery  time.Duration // the daemon's -checkpoint-every
	ckptWarm   int           // discarded campaigns per client

	layerBurst int // burst campaigns the traced layer pass replays
}

func fullParams() params {
	return params{
		wideScale: 3, shardedScale: 3, minWide: 1_000_000, minSharded: 600_000, shards: 4, minOps: 3,
		burstPoolScale: 3, burstTargets: 600, burstWarm: 50, burstInstances: 3, burstCheck: 50,
		ckptScale: 1, ckptShards: 2, ckptEvery: 100 * time.Millisecond, ckptWarm: 1,
		layerBurst: 20,
	}
}

// toyParams keeps every code path of fullParams at ≤ 2 k probes per op
// and a handful of daemon campaigns.
func toyParams() params {
	return params{
		small: true, maxTargets: 120,
		wideScale: 0.05, shardedScale: 0.05, shards: 4, minOps: 2,
		burstPoolScale: 0.05, burstTargets: 40, burstWarm: 1, burstInstances: 1, burstCheck: 2,
		ckptScale: 0.05, ckptShards: 2, ckptEvery: 2 * time.Millisecond, ckptWarm: 0,
		layerBurst: 2,
	}
}

// Probing constants shared by every workload (the paper's tuned maximum
// TTL, and a rate high enough to saturate router ICMPv6 rate limiters).
const (
	probeRate   = 10000
	probeMaxTTL = 16
	vantageName = "US-EDU-1" // beholderd's default vantage; solo reference runs must match it
)

func newInternet(small bool) *beholder.Internet {
	if small {
		return beholder.NewSmallInternet(universeSeed)
	}
	return beholder.NewInternet(universeSeed)
}

// seedTargets runs the three-step target pipeline for one seed list.
// It produces exactly Internet.TargetSet(list, 64, synth, scale) (up to
// the toy scale's truncation) — the
// smoke test pins that — but generates only the list asked for, where
// the facade generates all nine (≈ 5 s at scale 3) on every call; the
// RNG streams below are seeds.All's.
func seedTargets(in *beholder.Internet, p params, list string, synth target.Synth, scale float64) ([]netip.Addr, error) {
	stream := func(k int64) *rand.Rand { return rand.New(rand.NewSource(universeSeed*1315423911 + k)) }
	var l seeds.List
	switch list {
	case "tum":
		l, _ = seeds.TUM(in.Universe(), stream(7), seeds.Scale(scale))
	case "fdns_any":
		l = seeds.FDNS(in.Universe(), stream(3), seeds.Scale(scale))
	default:
		return nil, fmt.Errorf("bench: no generator for seed list %q", list)
	}
	set := target.Build(l, target.Spec{SeedName: list, ZN: 64, Synth: synth}, rand.New(rand.NewSource(universeSeed)))
	if set.Targets.Len() == 0 {
		return nil, fmt.Errorf("bench: %s at scale %v generated no targets", list, scale)
	}
	targets := set.Targets.Addrs()
	if p.maxTargets > 0 && len(targets) > p.maxTargets {
		targets = targets[:p.maxTargets]
	}
	return targets, nil
}

// deriveKey hashes (run seed, purpose, index) into a permutation key or
// RNG seed (splitmix64 finalizer), so every input of a run is a pure
// function of --seed.
func deriveKey(seed int64, purpose, index int) uint64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(purpose)<<32 + uint64(index) + 1
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x | 1 // never the zero key
}

// Purposes for deriveKey.
const (
	keyInproc = iota + 1
	keyBurstSubset
	keyBurstCampaign
	keyCkptTenant
)

// campaignInput is one campaign as the program under test receives it.
type campaignInput struct {
	targets []netip.Addr
	key     uint64
	shards  int
	fill    bool
	graph   bool // a graph observer rides the reply path
}

func (c campaignInput) options() beholder.YarrpOptions {
	return beholder.YarrpOptions{
		Rate: probeRate, MaxTTL: probeMaxTTL, Key: c.key,
		Fill: c.fill, Graph: c.graph, Shards: c.shards,
	}
}

// targetsJSON renders targets as the JSON array fragment of a /submit
// body.
func targetsJSON(targets []netip.Addr) string {
	var b strings.Builder
	b.WriteByte('[')
	for i, a := range targets {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteByte('"')
		b.WriteString(a.String())
		b.WriteByte('"')
	}
	b.WriteByte(']')
	return b.String()
}
