package alias

import (
	"math/rand"
	"net/netip"
	"time"

	"beholder/internal/ipv6"
	"beholder/internal/probe"
	"beholder/internal/telemetry"
	"beholder/internal/wire"
)

// APD's fixed probing shape.
const (
	hopLimit = 64              // probe hop limit; exceeds every path length
	cooldown = 2 * time.Second // post-send linger for straggler replies
	instance = 0xAD            // codec instance byte, distinguishing APD from Yarrp6 probers
)

// Params tunes the APD scheme.
type Params struct {
	Probes     int     // random IIDs probed per candidate (k)
	MinReplies int     // echo replies at or above which a candidate is aliased
	PPS        float64 // probe departure rate
	Budget     int64   // total probe cap; <= 0 means unlimited
	// Telemetry, when non-nil, receives each Detect run's counters
	// (apd_* metrics) in one end-of-run fold — APD runs are short and
	// low-rate, so per-event instrumentation buys nothing.
	Telemetry *telemetry.Shard
}

// DefaultParams returns the 6Prob-informed defaults: 8 probes per
// candidate, a majority-vote threshold (tolerating per-hop probe loss
// without admitting non-aliased prefixes, whose random addresses never
// produce echo replies), and 1 kpps pacing.
func DefaultParams() Params {
	return Params{
		Probes:     8,
		MinReplies: 4,
		PPS:        1000,
	}
}

// Result is one detection run's outcome.
type Result struct {
	Aliased    *Store
	Records    []Record // per-tested-candidate outcomes, in candidate order
	ProbesSent int64
	Tested     int // candidates probed
	Skipped    int // candidates left unprobed by budget exhaustion
}

// Detector probes candidate prefixes through a vantage connection. It
// is stateless between Detect calls apart from the codec epoch.
type Detector struct {
	conn  probe.Conn
	codec *probe.Codec
	p     Params
}

// NewDetector creates a detector over conn. Zero-valued Params fields
// fall back to DefaultParams; an explicit Probes without MinReplies
// gets a majority threshold.
func NewDetector(conn probe.Conn, p Params) *Detector {
	if p.Probes <= 0 {
		p.Probes = 8
	}
	if p.MinReplies <= 0 {
		p.MinReplies = (p.Probes + 1) / 2
	}
	if p.MinReplies > p.Probes {
		p.MinReplies = p.Probes
	}
	if p.PPS <= 0 {
		p.PPS = 1000
	}
	return &Detector{conn: conn, codec: probe.NewCodec(conn, wire.ProtoICMPv6, instance), p: p}
}

// Detect runs APD over the candidate prefixes and returns the detected
// alias list. Candidates are canonicalized and deduplicated preserving
// first-occurrence order, so under a budget the earliest candidates —
// the caller's highest priority — are probed and the remainder
// reported as Skipped rather than probed partially.
func (d *Detector) Detect(cands []netip.Prefix, rng *rand.Rand) *Result {
	uniq := make([]netip.Prefix, 0, len(cands))
	seen := make(map[netip.Prefix]struct{}, len(cands))
	for _, p := range cands {
		cp := ipv6.CanonicalPrefix(p)
		if _, dup := seen[cp]; dup {
			continue
		}
		seen[cp] = struct{}{}
		uniq = append(uniq, cp)
	}
	res := &Result{Aliased: NewStore()}
	defer d.publishTelemetry(res)
	n := len(uniq)
	if b := d.p.Budget; b > 0 {
		if affordable := int(b / int64(d.p.Probes)); affordable < n {
			res.Skipped = n - affordable
			n = affordable
		}
	}
	res.Tested = n
	if n == 0 {
		return res
	}

	counts := make([]int, n)
	owner := make(map[netip.Addr]int, n*d.p.Probes)
	interval := time.Duration(float64(time.Second) / d.p.PPS)
	pkt := make([]byte, 256)
	rbuf := make([]byte, 2048)

	// Rounds interleave candidates: consecutive probes into one prefix
	// are separated by a full pass over all others (the cool-down).
	for round := 0; round < d.p.Probes; round++ {
		for i := 0; i < n; i++ {
			a := randomAddrIn(uniq[i], rng)
			owner[a] = i
			m := d.codec.BuildProbe(pkt, a, hopLimit)
			if err := d.conn.Send(pkt[:m]); err == nil {
				res.ProbesSent++
			}
			d.conn.Sleep(interval)
			d.drain(rbuf, owner, counts)
		}
	}
	// Linger for replies still in flight.
	const steps = 20
	for s := 0; s < steps; s++ {
		d.conn.Sleep(cooldown / steps)
		d.drain(rbuf, owner, counts)
	}

	res.Records = make([]Record, n)
	for i, p := range uniq[:n] {
		rec := Record{
			Prefix:  p,
			Probes:  d.p.Probes,
			Replies: counts[i],
			Aliased: counts[i] >= d.p.MinReplies,
		}
		res.Records[i] = rec
		if rec.Aliased {
			res.Aliased.Add(rec)
		}
	}
	return res
}

// publishTelemetry folds one Detect run's counters into the configured
// telemetry shard.
func (d *Detector) publishTelemetry(res *Result) {
	sh := d.p.Telemetry
	if sh == nil {
		return
	}
	sh.Counter("apd_probes_sent_total").Add(res.ProbesSent)
	sh.Counter("apd_candidates_tested_total").Add(int64(res.Tested))
	sh.Counter("apd_candidates_skipped_total").Add(int64(res.Skipped))
	sh.Counter("apd_aliased_total").Add(int64(res.Aliased.Len()))
	sh.Flush()
}

// drain consumes deliverable replies, crediting echo replies back to
// the candidate owning the probed address. Each probed address counts
// at most once.
func (d *Detector) drain(buf []byte, owner map[netip.Addr]int, counts []int) {
	for {
		m, ok := d.conn.Recv(buf)
		if !ok {
			return
		}
		r, ok := d.codec.ParseReply(buf[:m])
		if !ok || r.Kind != probe.KindEchoReply {
			continue
		}
		if i, ok := owner[r.Target]; ok {
			counts[i]++
			delete(owner, r.Target)
		}
	}
}

// randomAddrIn draws a uniformly random address beneath p.
func randomAddrIn(p netip.Prefix, rng *rand.Rand) netip.Addr {
	base := ipv6.FromAddr(ipv6.PrefixBase(p))
	host := ipv6.U128{Hi: rng.Uint64(), Lo: rng.Uint64()}.And(ipv6.Mask(p.Bits()).Not())
	return base.Or(host).Addr()
}
