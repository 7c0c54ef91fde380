package core

import (
	"sync/atomic"
	"time"

	"beholder/internal/perm"
	"beholder/internal/probe"
)

// replayPulseEvery is how many replayed probes pass between heartbeat
// pulses: a replay is uninterruptible but must not look wedged to a
// supervision watchdog, however long the prefix is.
const replayPulseEvery = 1024

// replayRun is the longest run of schedule positions handed to the
// primer at once: long enough that the primer's gather pass overlaps
// many probes' cache misses, short enough that a run's state stays in
// cache until it is applied. It divides replayPulseEvery, so every pulse
// position opens a run.
const replayRun = 256

// replayPrefix replays the serial probe schedule for permutation indices
// [0, hi) against pr's rate-limiter state: every probe preceding a
// permutation window is evaluated at its original departure instant
// (base + i×gap), so router token buckets end exactly where the single
// serial prober would have left them. The schedule is drawn in runs of
// consecutive positions, each handed to pr.PrimeRun whole. Each target's
// flow is registered once from its first replayed probe (built with
// codec) and the remaining ~TTL-span probes of the flow replay through
// the token — no per-probe packet build or decode. Fill-mode follow-ups
// and neighborhood skips are not part of the raw schedule the replay
// covers; the package comment (campaign.go) states what that bounds.
//
// cuts, ascending and at most hi, are cursor positions the caller wants
// to observe: reached(i) runs — still inside the prime bracket — the
// moment the cursor stands at cuts[i], after probe cuts[i]−1 and before
// probe cuts[i]; runs end at cuts. The campaign cuts a bucket snapshot
// for the shard whose window opens there. pulse, when non-nil, is bumped
// every replayPulseEvery probes. The return value reports that the
// replay covered the whole prefix.
func replayPrefix(pr probe.Primer, p *perm.Perm, codec *probe.Codec, cfg *Config, hi uint64, base, gap time.Duration, pulse *atomic.Int64, cuts []uint64, reached func(i int)) bool {
	nt := uint64(len(cfg.Targets))
	toks := make([]int, len(cfg.Targets))
	for i := range toks {
		toks[i] = -1
	}
	idx := make([]uint64, replayRun)
	run := make([]int, replayRun)
	ttls := make([]uint8, replayRun)
	pkt := make([]byte, probeStride)
	pr.BeginPrime()
	defer pr.EndPrime()
	it := p.Resume(0)
	k := 0
	for {
		pos := it.Pos()
		for k < len(cuts) && pos == cuts[k] {
			reached(k)
			k++
		}
		if pos >= hi {
			return true
		}
		end := min(hi, (pos/replayRun+1)*replayRun)
		if k < len(cuts) {
			end = min(end, cuts[k])
		}
		n := it.NextBatch(idx[:end-pos])
		if n == 0 {
			return false
		}
		if pulse != nil && pos%replayPulseEvery == 0 {
			pulse.Add(1)
		}
		at0 := base + time.Duration(pos)*gap
		for i, v := range idx[:n] {
			ti := v % nt
			ttl := minTTL + uint8(v/nt)
			if toks[ti] < 0 {
				m := codec.BuildProbeAt(pkt, cfg.Targets[ti], ttl, at0+time.Duration(i)*gap)
				if t, err := pr.PrimeFlow(pkt[:m]); err == nil {
					toks[ti] = t
				}
			}
			run[i], ttls[i] = toks[ti], ttl
		}
		pr.PrimeRun(run[:n], ttls[:n], at0, gap)
	}
}
