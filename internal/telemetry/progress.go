package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"time"
)

// Progress streaming: deterministic virtual-time campaign samples.
//
// Each shard prober owns one Progress recorder. The campaign fixes a
// sampling step — a whole number of inter-probe gap slots — and the
// recorder's thresholds are epoch + k·step in absolute virtual time, the
// same instants for every shard regardless of where its permutation
// window lies. A shard records a sample whenever its clock crosses a
// threshold inside its send loop (the loop caps send runs at thresholds,
// so the crossing lands exactly on one), plus a pinning sample after any
// drain-tail activity, at window/run boundaries and when the prober
// fails. Record drops samples with unchanged counters and keeps, between
// two thresholds, only the latest, so the series is exactly the shard's
// state-change history evaluated at threshold precision.
//
// Merge then evaluates the global thresholds: at threshold T the campaign
// state is the sum over shards of each shard's latest sample at or before
// T, plus, in the interface count, the addresses whose first sighting
// (minimized across the shards that keep first sightings) is at or before
// T. Because the sharded schedule IS the serial schedule (netsim's
// clock-window invariant), this evaluation yields byte-identical streams
// at any shard count and batch size — the telemetry extension of the
// store/graph byte-identity the matrix tests pin. The series is the
// campaign's one discovery curve (the paper's Figure 7).
type Progress struct {
	epoch   time.Duration
	step    time.Duration
	samples []Sample
}

// Sample is one shard-local counter snapshot at virtual instant At
// (absolute virtual time).
type Sample struct {
	At           time.Duration
	Probes       int64
	Fills        int64
	Replies      int64
	TimeExceeded int64
	EchoReplies  int64
	DestUnreach  int64
	TCPRsts      int64
	// Interfaces is the shard store's interface count, for a shard whose
	// discoveries no first-sighting list records (a campaign's lone
	// shard); zero for a shard whose first sightings Merge counts.
	Interfaces int64
}

// sameCounters reports whether two samples carry identical counter state
// (ignoring the timestamp).
func sameCounters(a, b Sample) bool {
	return a.Probes == b.Probes && a.Fills == b.Fills && a.Replies == b.Replies &&
		a.TimeExceeded == b.TimeExceeded && a.EchoReplies == b.EchoReplies &&
		a.DestUnreach == b.DestUnreach && a.TCPRsts == b.TCPRsts && a.Interfaces == b.Interfaces
}

// NewProgress creates a per-shard recorder. epoch is the campaign epoch
// in absolute virtual time (every shard of one campaign shares it); step
// is the sampling interval, a whole multiple of the inter-probe gap.
func NewProgress(epoch, step time.Duration) *Progress {
	return &Progress{epoch: epoch, step: step, samples: make([]Sample, 0, 160)}
}

// Epoch returns the campaign epoch the thresholds count from.
func (p *Progress) Epoch() time.Duration { return p.epoch }

// NextThreshold returns the earliest sampling threshold strictly after
// now. now must be at or after the epoch.
func (p *Progress) NextThreshold(now time.Duration) time.Duration {
	k := (now-p.epoch)/p.step + 1
	return p.epoch + k*p.step
}

// Record appends a sample, dropping it when the counters are unchanged
// from the previous record — an equal-counter sample at a later instant
// adds nothing to threshold evaluation — and overwriting the previous
// record when no threshold lies between the two: Merge reads only the
// latest sample at or before each threshold, so the previous one would
// never be read. A shard's drain tail, which samples after every drain,
// thus keeps about one sample per threshold.
func (p *Progress) Record(s Sample) {
	if n := len(p.samples); n > 0 {
		last := &p.samples[n-1]
		if sameCounters(*last, s) {
			return
		}
		// last sits k past a threshold; the next one is step-k later.
		if k := (last.At - p.epoch) % p.step; k > 0 && s.At-last.At <= p.step-k {
			*last = s
			return
		}
	}
	p.samples = append(p.samples, s)
}

// Samples returns the recorded series in record order.
func (p *Progress) Samples() []Sample { return p.samples }

// Restore replaces the recorded series with a copy of samples — the
// checkpoint/resume path, where a resumed shard recorder continues the
// interrupted shard's series so Merge sees one uninterrupted history.
func (p *Progress) Restore(samples []Sample) {
	p.samples = append(p.samples[:0], samples...)
}

// Point is one merged campaign-global progress sample. At is relative to
// the campaign epoch, so equal campaigns launched at different absolute
// virtual times stream identically.
type Point struct {
	At           time.Duration
	Probes       int64
	Fills        int64
	Replies      int64
	TimeExceeded int64
	EchoReplies  int64
	DestUnreach  int64
	TCPRsts      int64
	Interfaces   int
}

// Merge folds per-shard recorders into the campaign-global progress
// series, evaluated at thresholds step, 2·step, … strictly below end plus
// a final point at end itself. A point's interface count is the sum of
// the shards' sampled Interfaces plus the entries of firstSeen at or
// before it: firstSeen holds the epoch-relative first sighting instants,
// sorted ascending, of the distinct interfaces no sample counts. end is
// the campaign's elapsed virtual time.
func Merge(shards []*Progress, firstSeen []time.Duration, step, end time.Duration) []Point {
	if len(shards) == 0 || step <= 0 {
		return nil
	}
	n := int(end/step) + 1
	out := make([]Point, 0, n)
	idx := make([]int, len(shards)) // per-shard cursor: samples consumed so far
	ifaces := 0
	eval := func(t time.Duration) Point {
		pt := Point{At: t}
		for si, sh := range shards {
			samples := sh.samples
			for idx[si] < len(samples) && samples[idx[si]].At-sh.epoch <= t {
				idx[si]++
			}
			if idx[si] == 0 {
				continue
			}
			s := samples[idx[si]-1]
			pt.Probes += s.Probes
			pt.Fills += s.Fills
			pt.Replies += s.Replies
			pt.TimeExceeded += s.TimeExceeded
			pt.EchoReplies += s.EchoReplies
			pt.DestUnreach += s.DestUnreach
			pt.TCPRsts += s.TCPRsts
			pt.Interfaces += int(s.Interfaces)
		}
		for ifaces < len(firstSeen) && firstSeen[ifaces] <= t {
			ifaces++
		}
		pt.Interfaces += ifaces
		return pt
	}
	for t := step; t < end; t += step {
		out = append(out, eval(t))
	}
	return append(out, eval(end))
}

// WritePoints streams the merged points as NDJSON sample records: one
// JSON object per line with a fixed field order, integer virtual
// timestamps, and fixed-precision derived rates, so equal point series
// write byte-identical streams. Lines are built with append-based
// formatting into one reused buffer: a campaign emits a sample every
// ~1/128th of its schedule, and reflective fmt on eleven fields showed
// up as a few percent of whole-run CPU (and ~10 allocations per line)
// in the telemetry-overhead benchmark.
func WritePoints(w io.Writer, pts []Point) error {
	bw := bufio.NewWriter(w)
	buf := make([]byte, 0, 256)
	var prev Point
	for _, p := range pts {
		rate := 0.0
		if dt := p.At - prev.At; dt > 0 {
			rate = float64(p.Probes-prev.Probes) / dt.Seconds()
		}
		disc := 0.0
		if p.Probes > 0 {
			disc = float64(p.Interfaces) / float64(p.Probes)
		}
		buf = buf[:0]
		buf = append(buf, `{"type":"sample","at_ns":`...)
		buf = strconv.AppendInt(buf, int64(p.At), 10)
		buf = append(buf, `,"probes":`...)
		buf = strconv.AppendInt(buf, p.Probes, 10)
		buf = append(buf, `,"fills":`...)
		buf = strconv.AppendInt(buf, p.Fills, 10)
		buf = append(buf, `,"replies":`...)
		buf = strconv.AppendInt(buf, p.Replies, 10)
		buf = append(buf, `,"time_exceeded":`...)
		buf = strconv.AppendInt(buf, p.TimeExceeded, 10)
		buf = append(buf, `,"echo_replies":`...)
		buf = strconv.AppendInt(buf, p.EchoReplies, 10)
		buf = append(buf, `,"dest_unreach":`...)
		buf = strconv.AppendInt(buf, p.DestUnreach, 10)
		buf = append(buf, `,"tcp_rsts":`...)
		buf = strconv.AppendInt(buf, p.TCPRsts, 10)
		buf = append(buf, `,"interfaces":`...)
		buf = strconv.AppendInt(buf, int64(p.Interfaces), 10)
		buf = append(buf, `,"rate_pps":`...)
		buf = strconv.AppendFloat(buf, rate, 'f', 1, 64)
		buf = append(buf, `,"discovery_per_probe":`...)
		buf = strconv.AppendFloat(buf, disc, 'f', 6, 64)
		buf = append(buf, '}', '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
		prev = p
	}
	return bw.Flush()
}

// ShardLine is one shard's window summary for the optional per-shard
// section of a progress stream. Times are epoch-relative virtual time.
type ShardLine struct {
	Shard   int
	Start   time.Duration // window open (lo × gap)
	Elapsed time.Duration // shard run time from window open
	Lag     time.Duration // campaign end minus this shard's finish
	Probes  int64
	Fills   int64
	Replies int64
}

// WriteShardLines appends per-shard summary records. These depend on the
// shard count by construction (they describe the windows themselves), so
// deterministic byte-compare across shard counts excludes them; they are
// opt-in for live monitoring of shard skew.
func WriteShardLines(w io.Writer, lines []ShardLine) error {
	bw := bufio.NewWriter(w)
	for _, l := range lines {
		fmt.Fprintf(bw, `{"type":"shard","shard":%d,"start_ns":%d,"elapsed_ns":%d,"lag_ns":%d,`+
			`"probes":%d,"fills":%d,"replies":%d}`+"\n",
			l.Shard, int64(l.Start), int64(l.Elapsed), int64(l.Lag),
			l.Probes, l.Fills, l.Replies)
	}
	return bw.Flush()
}

// WriteSummary appends the campaign-total summary record. p should be the
// final merged point (At = campaign elapsed).
func WriteSummary(w io.Writer, p Point) error {
	_, err := fmt.Fprintf(w, `{"type":"summary","elapsed_ns":%d,"probes":%d,"fills":%d,"replies":%d,"interfaces":%d}`+"\n",
		int64(p.At), p.Probes, p.Fills, p.Replies, p.Interfaces)
	return err
}
