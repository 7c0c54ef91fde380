// Package faultsim is the deterministic fault-injection plane for the
// simulated internetwork. It describes the failure modes real scanners
// meet in the wild — vantages that stall or crash mid-campaign,
// truncated or corrupted ICMPv6 replies, EAGAIN-shaped transient send
// errors, and delivery that stalls and then arrives in a burst — as
// pure functions of virtual time, so a faulted run is exactly as
// reproducible as a clean one.
//
// Every probabilistic draw is a keyed hash of (fault seed, subject
// identity, absolute virtual instant) — never a stream RNG — extending
// the netsim draw-constant space: netsim owns draws 40-44, faultsim
// owns 45 and up. Two campaigns with the same seed and schedule
// therefore fault identically, packet for packet, which is what lets
// the chaos tests assert byte-identical resume behaviour underneath an
// actively misbehaving network.
package faultsim

import (
	"fmt"
	"time"
)

// Kind enumerates the injectable fault classes.
type Kind uint8

const (
	// KindCrash makes the vantage's send path fail fatally from instant
	// At onward: every send returns a *CrashError. Models a prober host
	// dying mid-campaign.
	KindCrash Kind = iota
	// KindStall silently swallows everything the vantage sends inside
	// [At, At+Duration): the probe departs, nothing ever comes back.
	// Models an upstream blackhole or a wedged NIC queue.
	KindStall
	// KindTransientSend fails individual sends with probability Prob,
	// returning a *TransientSendError (EAGAIN-shaped: the packet was
	// not sent and the same send may succeed a moment later).
	KindTransientSend
	// KindTruncateReply truncates replies to the vantage with
	// probability Prob, cutting the ICMPv6 quotation short so probe
	// state recovery fails.
	KindTruncateReply
	// KindCorruptReply flips a byte inside the reply payload with
	// probability Prob.
	KindCorruptReply
	// KindDelayBurst holds replies whose delivery would land inside
	// [At, At+Duration) and releases them all at At+Duration. Models a
	// queue that wedges and then drains at once.
	KindDelayBurst
)

// String names the fault class for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindCrash:
		return "crash"
	case KindStall:
		return "stall"
	case KindTransientSend:
		return "transient-send"
	case KindTruncateReply:
		return "truncate-reply"
	case KindCorruptReply:
		return "corrupt-reply"
	case KindDelayBurst:
		return "delay-burst"
	}
	return "unknown"
}

// MatchAnyShard in Rule.Shard matches every clone ordinal of the
// vantage.
const MatchAnyShard = -1

// Rule injects one fault class at one vantage. Rules are matched when a
// vantage (or a clone of it) is created, so rule order never matters
// and the packet path pays nothing for rules that do not apply to it.
type Rule struct {
	// Vantage names the afflicted vantage; "" matches every vantage.
	Vantage string
	// Campaign names the afflicted campaign: vantages (and their shard
	// clones) carry a campaign tag when they probe on behalf of a
	// supervised campaign, and a rule with a non-empty Campaign applies
	// only to vantages tagged with exactly that name. "" matches every
	// campaign (including untagged vantages). This is what lets a chaos
	// soak afflict one tenant's campaign while its neighbours on the
	// same universe — even on the same vantage name — run clean.
	Campaign string
	// Shard selects one clone ordinal of the vantage (clones are
	// numbered 0, 1, 2, … in creation order within a shard group —
	// campaign shard s probes through clone s), or MatchAnyShard.
	// The parent vantage itself has ordinal 0.
	Shard int
	// Kind is the fault class to inject.
	Kind Kind
	// At is the activation instant in the vantage's virtual time
	// (Crash, Stall, DelayBurst).
	At time.Duration
	// Duration is the fault window length (Stall, DelayBurst).
	Duration time.Duration
	// Prob is the per-packet fault probability in [0, 1]
	// (TransientSend, TruncateReply, CorruptReply).
	Prob float64
}

// Config is the fault plane configuration, attached to a simulated
// universe via netsim.Config.Faults. A nil Config injects nothing and
// costs nothing.
type Config struct {
	// Seed keys every fault draw, independently of the universe seed,
	// so fault schedules can be varied without moving the topology.
	Seed uint64
	// Rules lists the faults to inject.
	Rules []Rule
}

// matches reports whether the rule applies to the given vantage clone,
// identified by vantage name, campaign tag, and clone ordinal.
func (r *Rule) matches(vantage, campaign string, shard int) bool {
	if r.Vantage != "" && r.Vantage != vantage {
		return false
	}
	if r.Campaign != "" && r.Campaign != campaign {
		return false
	}
	return r.Shard == MatchAnyShard || r.Shard == shard
}

// Plan is one vantage clone's resolved fault schedule: the subset of
// the configured rules that applies to it, flattened into flags the
// packet path can test with single comparisons. The zero Plan injects
// nothing.
type Plan struct {
	seed uint64

	crashArmed bool
	crashAt    time.Duration

	stallArmed bool
	stallAt    time.Duration
	stallEnd   time.Duration

	delayArmed bool
	delayAt    time.Duration
	delayEnd   time.Duration

	transientProb float64
	truncateProb  float64
	corruptProb   float64
}

// PlanFor resolves the rules applying to one vantage clone. campaign is
// the clone's campaign tag ("" when untagged). Multiple rules of the
// same windowed kind keep the earliest activation; probabilities
// combine by keeping the largest.
func (c *Config) PlanFor(vantage, campaign string, shard int) Plan {
	var p Plan
	if c == nil {
		return p
	}
	p.seed = mix64(c.Seed ^ 0xfa171a5e)
	for i := range c.Rules {
		r := &c.Rules[i]
		if !r.matches(vantage, campaign, shard) {
			continue
		}
		switch r.Kind {
		case KindCrash:
			if !p.crashArmed || r.At < p.crashAt {
				p.crashArmed, p.crashAt = true, r.At
			}
		case KindStall:
			if !p.stallArmed || r.At < p.stallAt {
				p.stallArmed, p.stallAt, p.stallEnd = true, r.At, r.At+r.Duration
			}
		case KindDelayBurst:
			if !p.delayArmed || r.At < p.delayAt {
				p.delayArmed, p.delayAt, p.delayEnd = true, r.At, r.At+r.Duration
			}
		case KindTransientSend:
			if r.Prob > p.transientProb {
				p.transientProb = r.Prob
			}
		case KindTruncateReply:
			if r.Prob > p.truncateProb {
				p.truncateProb = r.Prob
			}
		case KindCorruptReply:
			if r.Prob > p.corruptProb {
				p.corruptProb = r.Prob
			}
		}
	}
	return p
}

// Active reports whether the plan injects anything at all, so the
// packet path can guard every fault check behind one boolean.
func (p *Plan) Active() bool {
	return p.crashArmed || p.stallArmed || p.delayArmed ||
		p.transientProb > 0 || p.truncateProb > 0 || p.corruptProb > 0
}

// CrashNow reports whether the vantage's send path is dead at now.
func (p *Plan) CrashNow(now time.Duration) bool {
	return p.crashArmed && now >= p.crashAt
}

// CrashAt returns the armed crash instant (valid when CrashNow has
// fired or crash is armed).
func (p *Plan) CrashAt() (time.Duration, bool) { return p.crashAt, p.crashArmed }

// Stalled reports whether sends at now vanish into the stall window.
func (p *Plan) Stalled(now time.Duration) bool {
	return p.stallArmed && now >= p.stallAt && now < p.stallEnd
}

// DelayedUntil maps a delivery instant through the delay-burst window:
// deliveries landing inside it are released at the window end.
func (p *Plan) DelayedUntil(at time.Duration) (time.Duration, bool) {
	if p.delayArmed && at >= p.delayAt && at < p.delayEnd {
		return p.delayEnd, true
	}
	return at, false
}

// Draw constants continue netsim's per-packet draw space (40-44).
const (
	drawTransient = 45
	drawTruncate  = 46
	drawCorrupt   = 47
)

// DrawTransient decides whether one send attempt fails transiently.
// subject is the vantage identity key; now is the attempt instant —
// paced senders attempt at distinct instants, so a retry one gap later
// redraws independently.
func (p *Plan) DrawTransient(subject uint64, now time.Duration) bool {
	if p.transientProb <= 0 {
		return false
	}
	return hashFloat(h3(p.seed^subject, drawTransient, uint64(now))) < p.transientProb
}

// DrawTruncate decides whether one reply is truncated. pk is the
// per-packet key netsim derives from (flow, hop limit); now is the
// probe's send instant.
func (p *Plan) DrawTruncate(pk uint64, now time.Duration) bool {
	if p.truncateProb <= 0 {
		return false
	}
	return hashFloat(h3(p.seed^pk, drawTruncate, uint64(now))) < p.truncateProb
}

// DrawCorrupt decides whether one reply is corrupted.
func (p *Plan) DrawCorrupt(pk uint64, now time.Duration) bool {
	if p.corruptProb <= 0 {
		return false
	}
	return hashFloat(h3(p.seed^pk, drawCorrupt, uint64(now))) < p.corruptProb
}

// CorruptAt picks the byte offset (within a span of writable bytes) and
// the XOR mask for one corrupted reply. The mask is never zero, so a
// corrupt draw always changes the packet.
func (p *Plan) CorruptAt(pk uint64, now time.Duration, span int) (off int, mask byte) {
	key := h3(p.seed^pk, drawCorrupt+1, uint64(now))
	mask = byte(key >> 56)
	if mask == 0 {
		mask = 0xff
	}
	return int(key % uint64(span)), mask
}

// CrashError is the fatal send failure a crashed vantage returns. It is
// not transient: the campaign quarantines the shard and continues it
// from its cursor on a fresh connection.
type CrashError struct {
	Vantage string
	Shard   int
	At      time.Duration
}

func (e *CrashError) Error() string {
	return fmt.Sprintf("faultsim: vantage %s (clone %d) crashed at %v", e.Vantage, e.Shard, e.At)
}

// TransientSendError is the EAGAIN-shaped per-packet send failure: the
// packet was not sent, and retrying the same send later may succeed.
type TransientSendError struct {
	Vantage string
	At      time.Duration
}

func (e *TransientSendError) Error() string {
	return fmt.Sprintf("faultsim: transient send error at vantage %s at %v", e.Vantage, e.At)
}

// Transient marks the error retryable for probe.IsTransient.
func (e *TransientSendError) Transient() bool { return true }

// mix64 is the SplitMix64 finalizer, the same mixer netsim's keyed
// draws use; replicated here so the fault plane stays dependency-free.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// h3 hashes a (seed, draw constant, instant) triple.
func h3(seed, draw, now uint64) uint64 {
	const gamma = 0x9e3779b97f4a7c15
	x := seed
	x = mix64(x ^ (draw * gamma))
	x = mix64(x ^ (now * gamma))
	return x
}

// hashFloat maps a hash key to [0, 1) with 53-bit precision, matching
// netsim's draw quantization.
func hashFloat(key uint64) float64 {
	return float64(key>>11) / (1 << 53)
}
