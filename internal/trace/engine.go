// Package trace implements the stateful baseline probers the paper
// compares Yarrp6 against: a scamper-like sequential ICMP-Paris
// traceroute and Doubletree (Donnet et al., SIGMETRICS 2005).
//
// Both run on a shared windowed engine: up to Window traces are in flight
// at once, each a small state machine that advances when its outstanding
// probe resolves or times out. Because every trace in a window starts at
// the same point and probe RTTs are similar, traces advance through TTLs
// in near-lockstep — exactly the "per-TTL bursty behaviour ... traces
// remain synchronized" the paper measured in packet captures of the
// sequential prober, and the reason randomized probing wins at high rates
// (Figure 5).
package trace

import (
	"net/netip"
	"time"

	"beholder/internal/probe"
	"beholder/internal/telemetry"
	"beholder/internal/wire"
)

// EngineConfig holds the knobs shared by the stateful probers.
type EngineConfig struct {
	// PPS is the aggregate probe departure rate. Default 100.
	PPS float64
	// Proto is the probe transport (default ICMPv6, as CAIDA's production
	// probing uses ICMP-Paris).
	Proto uint8
	// Window is the number of concurrent traces. Default 64.
	Window int
	// Timeout is the per-probe reply deadline. Default 500ms.
	Timeout time.Duration
	// Synchronized runs the window in strict global rounds: every trace
	// sends its next probe, then the engine waits for the round to
	// resolve before any trace advances. This reproduces the "per-TTL
	// bursty behaviour ... traces remain synchronized" the paper measured
	// in the sequential prober's packet captures, and is what collapses
	// its near-hop responsiveness at high rates (Figure 5). Without it
	// the window desynchronizes within a few RTTs.
	Synchronized bool
	// Telemetry, when non-nil, receives each run's counters (trace_*
	// metrics) in one end-of-run fold — the stateful probers are
	// windowed and low-rate, so per-event instrumentation buys nothing.
	Telemetry *telemetry.Shard
}

func (c *EngineConfig) setDefaults() {
	if c.PPS <= 0 {
		c.PPS = 100
	}
	if c.Proto == 0 {
		c.Proto = wire.ProtoICMPv6
	}
	if c.Window <= 0 {
		c.Window = 64
	}
	if c.Timeout <= 0 {
		c.Timeout = 500 * time.Millisecond
	}
}

// Stats summarizes a stateful campaign.
type Stats struct {
	ProbesSent  int64
	DestReached int64
	StopSetHits int64 // probes avoided by Doubletree stop sets
	Elapsed     time.Duration
}

// event is a resolved probe outcome delivered to a strategy.
type event struct {
	ttl     uint8
	timeout bool
	reply   probe.Reply
}

// strategy drives one trace's TTL schedule.
type strategy interface {
	// next returns the next TTL to probe, or done.
	next() (ttl uint8, done bool)
	// observe feeds the outcome of the previous probe.
	observe(ev event)
}

// traceState tracks one in-flight trace.
type traceState struct {
	target  netip.Addr
	strat   strategy
	pending bool
	ttl     uint8
	sentAt  time.Duration
	done    bool
}

// engine runs trace state machines against a vantage.
type engine struct {
	conn  probe.Conn
	cfg   EngineConfig
	codec *probe.Codec
	store *probe.Store
	stats Stats

	pkt    []byte
	rbuf   []byte
	active map[netip.Addr]*traceState // keyed by target for reply routing
	// order holds the live traces in admission order. Send loops iterate
	// it — never the map — so probe order is deterministic: stateful
	// probers must emit the same (packet, time) schedule on every run
	// for campaigns to reproduce (map iteration order would otherwise
	// leak into the schedule and, through the simulator's per-packet
	// draws, into results).
	order []*traceState

	// observer, when set, sees every stored reply (used by Doubletree to
	// maintain stop sets and by responsiveness analyses).
	observer func(probe.Reply)
}

func newEngine(conn probe.Conn, cfg EngineConfig, store *probe.Store) *engine {
	cfg.setDefaults()
	codec := probe.NewCodec(conn, cfg.Proto, 0)
	return &engine{
		conn:   conn,
		cfg:    cfg,
		codec:  codec,
		store:  store,
		pkt:    make([]byte, 128),
		rbuf:   make([]byte, wire.MinMTU),
		active: make(map[netip.Addr]*traceState),
	}
}

// run processes targets through newStrategy until all traces complete.
func (e *engine) run(targets []netip.Addr, newStrategy func(target netip.Addr) strategy) Stats {
	if e.cfg.Synchronized {
		return e.runSynchronized(targets, newStrategy)
	}
	start := e.conn.Now()
	gap := time.Duration(float64(time.Second) / e.cfg.PPS)
	next := 0 // next target index to admit

	for next < len(targets) || len(e.active) > 0 {
		// Admit new traces into the window.
		for len(e.active) < e.cfg.Window && next < len(targets) {
			t := targets[next]
			next++
			if _, dup := e.active[t]; dup {
				continue
			}
			ts := &traceState{target: t, strat: newStrategy(t)}
			e.active[t] = ts
			e.order = append(e.order, ts)
		}
		progressed := false
		live := e.order[:0]
		for _, ts := range e.order {
			if ts.done {
				continue
			}
			if ts.pending {
				if e.conn.Now()-ts.sentAt >= e.cfg.Timeout {
					ts.resolve(event{ttl: ts.ttl, timeout: true})
					progressed = true
				}
				live = append(live, ts)
				continue
			}
			ttl, done := ts.strat.next()
			if done {
				ts.done = true
				delete(e.active, ts.target)
				progressed = true
				continue
			}
			n := e.codec.BuildProbe(e.pkt, ts.target, ttl)
			if err := e.conn.Send(e.pkt[:n]); err != nil {
				ts.done = true
				delete(e.active, ts.target)
				continue
			}
			e.stats.ProbesSent++
			ts.pending = true
			ts.ttl = ttl
			ts.sentAt = e.conn.Now()
			e.conn.Sleep(gap)
			e.drain()
			progressed = true
			live = append(live, ts)
		}
		e.order = live
		if !progressed {
			// Everything is awaiting replies: let time pass.
			e.conn.Sleep(5 * time.Millisecond)
			e.drain()
		}
	}
	e.stats.Elapsed = e.conn.Now() - start
	e.publishTelemetry()
	return e.stats
}

// runSynchronized advances a whole window of traces in lockstep TTL
// rounds, admitting the next window batch only when the current one
// completes — scamper-style synchronized operation.
func (e *engine) runSynchronized(targets []netip.Addr, newStrategy func(target netip.Addr) strategy) Stats {
	start := e.conn.Now()
	gap := time.Duration(float64(time.Second) / e.cfg.PPS)
	next := 0
	for next < len(targets) || len(e.active) > 0 {
		for len(e.active) < e.cfg.Window && next < len(targets) {
			t := targets[next]
			next++
			if _, dup := e.active[t]; dup {
				continue
			}
			ts := &traceState{target: t, strat: newStrategy(t)}
			e.active[t] = ts
			e.order = append(e.order, ts)
		}
		// One synchronized round: every live trace emits its next probe
		// back to back (the per-TTL burst), then the round resolves.
		var sent []*traceState
		live := e.order[:0]
		for _, ts := range e.order {
			if ts.done {
				continue
			}
			ttl, done := ts.strat.next()
			if done {
				ts.done = true
				delete(e.active, ts.target)
				continue
			}
			n := e.codec.BuildProbe(e.pkt, ts.target, ttl)
			if err := e.conn.Send(e.pkt[:n]); err != nil {
				ts.done = true
				delete(e.active, ts.target)
				continue
			}
			e.stats.ProbesSent++
			ts.pending = true
			ts.ttl = ttl
			ts.sentAt = e.conn.Now()
			sent = append(sent, ts)
			e.conn.Sleep(gap)
			e.drain()
			live = append(live, ts)
		}
		e.order = live
		// Wait out the round: replies resolve traces, and what is still
		// pending at the deadline times out.
		anyPending := func() bool {
			for _, ts := range sent {
				if ts.pending {
					return true
				}
			}
			return false
		}
		deadline := e.conn.Now() + e.cfg.Timeout
		for e.conn.Now() < deadline && anyPending() {
			e.conn.Sleep(2 * time.Millisecond)
			e.drain()
		}
		for _, ts := range sent {
			if ts.pending {
				ts.resolve(event{ttl: ts.ttl, timeout: true})
			}
		}
	}
	e.stats.Elapsed = e.conn.Now() - start
	e.publishTelemetry()
	return e.stats
}

// publishTelemetry folds one run's counters into the configured
// telemetry shard.
func (e *engine) publishTelemetry() {
	sh := e.cfg.Telemetry
	if sh == nil {
		return
	}
	sh.Counter("trace_probes_sent_total").Add(e.stats.ProbesSent)
	sh.Counter("trace_dest_reached_total").Add(e.stats.DestReached)
	sh.Counter("trace_stopset_hits_total").Add(e.stats.StopSetHits)
	sh.Flush()
}

// resolve feeds an outcome to the trace.
func (ts *traceState) resolve(ev event) {
	ts.pending = false
	ts.strat.observe(ev)
}

// drain routes replies to their traces and the store.
func (e *engine) drain() {
	for {
		n, ok := e.conn.Recv(e.rbuf)
		if !ok {
			return
		}
		r, ok := e.codec.ParseReply(e.rbuf[:n])
		if !ok {
			continue
		}
		e.store.Add(r)
		if e.observer != nil {
			e.observer(r)
		}
		if r.Kind == probe.KindEchoReply || r.Kind == probe.KindTCPRst ||
			(r.Kind == probe.KindDestUnreach && r.Code == wire.CodePortUnreachable) {
			e.stats.DestReached++
		}
		ts := e.active[r.Target]
		if ts == nil || !ts.pending {
			continue
		}
		// Destination responses resolve whatever TTL is outstanding;
		// hop responses resolve only their own TTL.
		if r.TTL != 0 && r.TTL != ts.ttl && r.Kind == probe.KindTimeExceeded {
			continue
		}
		ts.resolve(event{ttl: ts.ttl, reply: r})
	}
}
