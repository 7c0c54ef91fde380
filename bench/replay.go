package main

import (
	"fmt"
	"time"

	"beholder/internal/graph"
	"beholder/internal/netsim"
	"beholder/internal/perm"
	"beholder/internal/probe"
	"beholder/internal/wire"
)

// The staged replay drives the layers exactly as the engine's batched
// loop (core.Yarrp6.Run / runBatched / drainAll / handleReply) does —
// same permutation, same probes stamped for the same departure
// instants, same early-stopped sends, same drain instants, same fill
// rule — but from the benchmark's own code, with every call into a
// layer's public function wrapped in a span. Its store must Equal the
// 1-shard engine's store for the same key; that equality is what
// licenses reading the stage times as a decomposition of the engine's
// time. The one structural difference: the engine handles a drained
// reply completely (parse, store, observer, fill) before the next,
// where the replay runs each stage over the whole received batch (at
// most 32 replies) so that a span covers many calls; replies carry no
// references into packet buffers and fills only schedule strictly
// future deliveries, so the results are the same.

// Engine constants the replay mirrors (core.DefaultBatch, recvBatch,
// probeStride, the 2 s default drain timeout, the default fill limit).
const (
	sendBatch    = 64
	recvBatch    = 32
	probeStride  = 128
	drainTimeout = 2 * time.Second
	fillLimit    = 32
	minTTL       = 1
)

// tmplCacheSize is core's sizing rule for a solo prober's probe-template
// cache: the codec stage is timed with the cache the engine would give
// it.
func tmplCacheSize(n int) int {
	size := 8192
	for s := 64; s < size; s <<= 1 {
		if s >= 4*n {
			size = s
			break
		}
	}
	return size
}

// Stages: one span per stage per permutation batch, all children of the
// campaign root. A send run stops at every instant a reply becomes
// deliverable — about every second probe at this rate — so a span per
// call would be millions of spans and cost more than the calls; instead
// a stage's span in a batch starts at its first call there and is as
// long as the stage was busy in the batch.
const (
	stagePerm = iota
	stageBuild
	stageSend
	stageRecv
	stageParse
	stageStore
	stageGraph
	stageFill
	stageSleep
	numStages
)

var stageNames = [numStages]string{
	"perm.next_batch", "codec.build", "netsim.send", "netsim.recv", "codec.parse",
	"probe.store.add", "graph.on_reply", "fill", "netsim.sleep",
}

// replayCounts is what the replay did, for the per-unit divisions.
type replayCounts struct {
	probes  int64 // permutation probes plus fills
	fills   int64
	replies int64
	novel   int64 // replies whose source was a new interface
}

// replayer holds one staged replay's state.
type replayer struct {
	conn  *netsim.Vantage
	codec *probe.Codec
	store *probe.Store
	g     *graph.Graph // nil: no observer on the reply path
	tr    *tracer      // nil: untraced
	root  int
	camp  int
	fill  bool
	n     replayCounts

	// Tracing: the clock is read once per stage boundary (lap), each
	// reading closing one stage's section and opening the next.
	last int64
	busy [numStages]struct{ start, dur int64 }

	pkt     [probeStride]byte
	rbatch  []byte
	rsizes  []int
	replies []probe.Reply
}

// lap attributes the host time since the previous lap to stage.
func (r *replayer) lap(stage int) {
	if r.tr == nil {
		return
	}
	now := r.tr.now()
	b := &r.busy[stage]
	if b.dur == 0 {
		b.start = r.last
	}
	b.dur += now - r.last
	r.last = now
}

// flush emits the batch's stage spans.
func (r *replayer) flush() {
	if r.tr == nil {
		return
	}
	for st := range r.busy {
		if b := &r.busy[st]; b.dur > 0 {
			r.tr.emit(stageNames[st], r.root, r.camp, b.start, b.dur)
			*b = struct{ start, dur int64 }{}
		}
	}
}

// stagedReplay runs campaign c's 1-shard schedule on conn, folding into
// store (and g when non-nil), and returns the counts. campaign is the
// trace identifier shared by the run's spans.
func stagedReplay(conn *netsim.Vantage, c campaignInput, store *probe.Store, g *graph.Graph, tr *tracer, campaign int) (replayCounts, error) {
	r := &replayer{
		conn: conn, store: store, g: g, tr: tr, camp: campaign, fill: c.fill,
		codec:   probe.NewCodec(conn, wire.ProtoICMPv6, 0),
		rbatch:  make([]byte, recvBatch*wire.MinMTU),
		rsizes:  make([]int, recvBatch),
		replies: make([]probe.Reply, 0, recvBatch),
	}
	r.codec.SetProbeCache(tmplCacheSize(len(c.targets)))
	r.root = tr.begin("campaign", 0, campaign)
	defer tr.end(r.root)
	defer conn.FlushStats()
	if tr != nil {
		r.last = tr.now()
	}

	nt := uint64(len(c.targets))
	domain := domainOf(c)
	p, err := perm.New(c.key, domain)
	if err != nil {
		return r.n, fmt.Errorf("replay: %w", err)
	}
	idx := make([]uint64, sendBatch)
	ring := make([]byte, sendBatch*probeStride)
	pkts := make([][]byte, sendBatch)

	it := p.Resume(0)
	for it.Pos() < domain {
		k := uint64(sendBatch)
		if rem := domain - it.Pos(); rem < k {
			k = rem
		}
		n := it.NextBatch(idx[:k])
		r.lap(stagePerm)
		if n == 0 {
			break
		}
		t0 := conn.Now()
		for i := 0; i < n; i++ {
			v := idx[i]
			off := i * probeStride
			m := r.codec.BuildProbeAt(ring[off:off+probeStride], c.targets[v%nt], minTTL+uint8(v/nt), t0+time.Duration(i)*gap)
			pkts[i] = ring[off : off+m]
		}
		r.lap(stageBuild)
		for sent := 0; sent < n; {
			m, deliverable, err := conn.SendBatch(pkts[sent:n], gap)
			r.lap(stageSend)
			if err != nil {
				return r.n, fmt.Errorf("replay: send: %w", err)
			}
			r.n.probes += int64(m)
			sent += m
			if deliverable {
				r.drain()
			}
		}
		r.flush()
	}

	// The drain tail: step by the send gap, crossing stretches where
	// nothing can arrive in one sleep, as the engine does.
	deadline := conn.Now() + drainTimeout
	for {
		now := conn.Now()
		if now >= deadline {
			break
		}
		steps := int64((deadline - now + gap - 1) / gap)
		if at, ok := conn.NextDeliveryAt(); ok {
			if at <= now {
				steps = 1
			} else if s := int64((at - now + gap - 1) / gap); s < steps {
				steps = s
			}
		}
		conn.Sleep(time.Duration(steps) * gap)
		r.lap(stageSleep)
		r.drain()
		r.flush()
	}
	return r.n, nil
}

// drain processes every reply deliverable now, a received batch at a
// time, stage by stage.
func (r *replayer) drain() {
	for {
		n := r.conn.RecvBatch(r.rbatch, r.rsizes)
		r.lap(stageRecv)
		if n == 0 {
			return
		}
		r.replies = r.replies[:0]
		off := 0
		for i := 0; i < n; i++ {
			if rep, ok := r.codec.ParseReply(r.rbatch[off : off+r.rsizes[i]]); ok {
				r.replies = append(r.replies, rep)
			}
			off += r.rsizes[i]
		}
		r.lap(stageParse)
		r.n.replies += int64(len(r.replies))

		for _, rep := range r.replies {
			if r.store.Add(rep) {
				r.n.novel++
			}
		}
		r.lap(stageStore)

		if r.g != nil {
			for _, rep := range r.replies {
				r.g.OnReply(rep)
			}
			r.lap(stageGraph)
		}

		if r.fill {
			// handleReply's fill rule: a Time Exceeded from at or past the
			// maximum randomized TTL extends the trace by one hop.
			for _, rep := range r.replies {
				if rep.Kind == probe.KindTimeExceeded && rep.StateRecovered &&
					rep.TTL >= probeMaxTTL && rep.TTL < fillLimit && rep.Target.IsValid() {
					m := r.codec.BuildProbe(r.pkt[:], rep.Target, rep.TTL+1)
					if err := r.conn.Send(r.pkt[:m]); err == nil {
						r.n.probes++
						r.n.fills++
					}
				}
			}
			r.lap(stageFill)
		}
		if n < len(r.rsizes) {
			return
		}
	}
}
