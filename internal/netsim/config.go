package netsim

import (
	"time"

	"beholder/internal/faultsim"
)

// ASKind categorizes an autonomous system; the kind selects the addressing
// plan (subnet hierarchy and host population) and policy knobs.
type ASKind int

// AS kinds. The mix approximates the populations the paper's seed sources
// draw from.
const (
	KindTransit    ASKind = iota // backbone carrier; mostly infrastructure
	KindEyeballISP               // residential broadband; CPE at the edge
	KindHosting                  // datacenter/content; dense lowbyte servers
	KindEnterprise               // corporate; rDNS-visible static hosts
	KindUniversity               // campus; publishes address plans
	numASKinds
)

func (k ASKind) String() string {
	switch k {
	case KindTransit:
		return "transit"
	case KindEyeballISP:
		return "eyeball"
	case KindHosting:
		return "hosting"
	case KindEnterprise:
		return "enterprise"
	case KindUniversity:
		return "university"
	}
	return "unknown"
}

// Config parameterizes universe generation. The zero value is not valid;
// start from DefaultConfig or TestConfig.
type Config struct {
	Seed int64 // master determinism seed

	// AS population.
	NumASes        int // total autonomous systems
	NumTier1       int // fully meshed core carriers
	Tier2Frac      int // one tier-2 regional per this many ASes
	EyeballFrac    int // percent of edge ASes that are eyeball ISPs
	HostingFrac    int // percent of edge ASes that are hosting networks
	EnterpriseFrac int // percent of edge ASes that are enterprises
	// remainder: universities

	// Addressing.
	PrefixesPerAS  int // mean announced prefixes per AS
	RIRPercent     int // percent of ASes numbering routers from unadvertised RIR space
	CPEISPs        int // count of large eyeball ISPs with EUI-64 CPE deployments
	EquivOrgGroups int // organizations originating from multiple "equivalent" ASNs

	// Router behaviour.
	RateLimitTokensMin  float64       // token bucket refill rate, tokens/sec, low end
	RateLimitTokensMax  float64       // high end
	RateLimitBurstMin   float64       // bucket depth, low end
	RateLimitBurstMax   float64       // high end
	AggressivePercent   int           // percent of routers with ~10x stricter limits
	UnresponsivePercent int           // percent of routers that never emit ICMPv6
	LossPercent         int           // per-hop probe loss, percent (applied per traversal)
	QuoteTruncPercent   int           // percent of routers quoting only 28+40 bytes (IPv4-style)
	BaseHopLatency      time.Duration // per-hop one-way latency floor

	// Policy.
	BlockUDPPercent  int // percent of edge ASes filtering UDP probes at the border
	BlockTCPPercent  int // percent of edge ASes filtering TCP probes at the border
	BlockEchoPercent int // percent of edge ASes filtering ICMPv6 echo to hosts
	RejectRoutePct   int // percent of edge ASes answering unallocated space with reject-route

	// Load balancing.
	LBFracPercent int // percent of transit ASes running ECMP
	LBWays        int // parallel paths at a load-balanced AS

	// Aliasing. CDN-style hosting ASes front whole /64s with load
	// balancers that terminate any address — the aliased-prefix
	// pollution that follow-on work (6Prob) dealiases.
	CDNPercent        int // percent of hosting ASes operating CDN-style front ends
	AliasedLANPercent int // percent of provisioned /64s in CDN ASes that are aliased

	// Faults attaches the deterministic fault-injection plane
	// (internal/faultsim): per-vantage crash/stall schedules, transient
	// send errors, reply truncation/corruption, and delayed-burst
	// delivery, all keyed-hash-driven so faulted runs replay exactly.
	// Nil injects nothing and costs one predictable branch per send.
	Faults *faultsim.Config
}

// DefaultConfig returns a campaign-scale universe: large enough that
// target sets in the tens of thousands and probe counts in the millions
// behave like the paper's Internet-wide campaigns, small enough that every
// experiment runs in seconds.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:                seed,
		NumASes:             1200,
		NumTier1:            8,
		Tier2Frac:           12,
		EyeballFrac:         30,
		HostingFrac:         25,
		EnterpriseFrac:      30,
		PrefixesPerAS:       3,
		RIRPercent:          12,
		CPEISPs:             2,
		EquivOrgGroups:      10,
		RateLimitTokensMin:  60,
		RateLimitTokensMax:  400,
		RateLimitBurstMin:   10,
		RateLimitBurstMax:   80,
		AggressivePercent:   10,
		UnresponsivePercent: 6,
		LossPercent:         1,
		QuoteTruncPercent:   1,
		BaseHopLatency:      300 * time.Microsecond,
		BlockUDPPercent:     8,
		BlockTCPPercent:     7,
		BlockEchoPercent:    4,
		RejectRoutePct:      3,
		LBFracPercent:       30,
		LBWays:              4,
		CDNPercent:          35,
		AliasedLANPercent:   30,
	}
}

// TestConfig returns a small universe for unit tests.
func TestConfig(seed int64) Config {
	c := DefaultConfig(seed)
	c.NumASes = 120
	c.NumTier1 = 4
	c.Tier2Frac = 10
	return c
}
