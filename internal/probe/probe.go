// Package probe defines the prober-side plumbing shared by Yarrp6 and the
// baseline probers: the vantage connection contract, parsed reply records,
// and the trace store that accumulates campaign results.
//
// Conn is the one contract between a prober and its vantage point. It
// abstracts the vantage the way a raw IPv6 socket would — probers hand it
// complete wire-format packets and read back complete wire-format replies
// — and carries the simulator's history across the engine's structural
// transformations: in-flight replies and router token-bucket levels
// through checkpoints, and the serial schedule preceding a shard's window
// through the prime replay. netsim.Vantage implements it; a PF_PACKET-
// backed implementation would implement the same interface for live
// measurement without touching prober code.
package probe

import (
	"net/netip"
	"time"
)

// Conn is the packet conduit, virtual clock and history carrier at a
// vantage point. The baseline probers and alias detection use its
// single-packet methods alone; Yarrp6 uses all of it.
//
// A live raw-socket implementation maps SendBatch and RecvBatch to
// sendmmsg and recvmmsg. It probes a network that already carries its
// own history, so its prime replay is a no-op, ExportSimState appends
// nothing and ImportSimState accepts only that empty state; its pending
// replies are whatever it has read from the kernel and not yet handed
// out.
type Conn interface {
	// LocalAddr returns the source address probes are sent from.
	LocalAddr() netip.Addr
	// Send transmits one wire-format IPv6 packet.
	Send(pkt []byte) error
	// Recv copies the next available reply into buf, returning its
	// length; ok is false when no reply is currently deliverable.
	Recv(buf []byte) (int, bool)
	// Now returns the current (virtual) time.
	Now() time.Duration
	// Sleep advances time; probers use it to pace departures.
	Sleep(d time.Duration)

	// SendBatch transmits pkts in order, advancing the clock by gap
	// after each send — exactly the schedule a serial Send/Sleep loop
	// would produce. It stops early (after the clock advance) as soon
	// as a reply becomes deliverable, so the caller can drain at the
	// same virtual instant a per-probe loop would have; sent is how
	// many packets went out, and deliverable reports whether a reply
	// is waiting at the current virtual time.
	SendBatch(pkts [][]byte, gap time.Duration) (sent int, deliverable bool, err error)
	// RecvBatch copies every reply deliverable at the current virtual
	// time — at most len(sizes) of them — back-to-back into buf,
	// recording each reply's length in sizes, and returns the count.
	RecvBatch(buf []byte, sizes []int) int
	// NextDeliveryAt returns the earliest queued reply's delivery time;
	// ok is false when nothing is queued at all.
	NextDeliveryAt() (at time.Duration, ok bool)
	// FlushStats publishes any batched global counters the connection
	// has been accumulating. Batch sends may defer shared-counter
	// updates for throughput; probers call this once when a run ends so
	// post-run readers observe exact totals.
	FlushStats()

	// ExportPending visits every undelivered reply in delivery order;
	// the bytes are only valid during the callback. Campaign
	// checkpoints carry them, so that interrupt-at-any-instant plus
	// resume replays the uninterrupted run byte for byte.
	ExportPending(fn func(at time.Duration, data []byte))
	// InjectReply enqueues a copy of reply bytes for delivery at
	// virtual instant at: a resumed or restarted run's in-flight replies
	// on its fresh connection.
	InjectReply(at time.Duration, data []byte)

	// BeginPrime opens a prime replay: the schedule preceding a
	// permutation window is replayed so that history-dependent response
	// state (router ICMPv6 token buckets) opens at the levels the serial
	// schedule would have left — what makes N-shard reply counters match
	// the serial run even past rate-limit saturation. PrimeFlow and
	// PrimeRun evaluate probes at explicit replayed instants, mutating
	// rate-limiter state only: no replies, no stats, no clock movement.
	BeginPrime()
	// PrimeFlow registers a probe's flow for replay, returning a token
	// for PrimeRun. A Yarrp6 schedule revisits each flow once per TTL, so
	// registering the flow once (from any representative probe of it —
	// flow identity is TTL-independent by construction) and replaying
	// per-(TTL, instant) through the token skips the per-probe packet
	// build and decode that would dominate. Tokens are valid until
	// EndPrime.
	PrimeFlow(pkt []byte) (int, error)
	// PrimeRun replays a run of consecutive probes of the preceding
	// serial schedule: probe i is the one it sent for flow toks[i] at hop
	// limit ttls[i] and virtual instant at0 + i·gap. A negative token
	// skips its probe but not its instant. Runs must be replayed in
	// schedule order; handing over a run at once lets the connection
	// load the whole run's state before it applies the run in order.
	PrimeRun(toks []int, ttls []uint8, at0, gap time.Duration)
	// EndPrime closes the replay.
	EndPrime()

	// ExportSimState appends the connection's history-dependent
	// response state (router token-bucket levels) as an opaque blob to
	// buf and returns the extended slice. Campaign checkpoints store it
	// so a resumed run is byte-exact even when a rate limiter was
	// saturated across the interrupt instant — including bucket drain
	// from fill probes, which priming alone cannot replay.
	ExportSimState(buf []byte) []byte
	// ImportSimState restores a blob produced by ExportSimState. It must
	// be called before the connection routes any probes, and the
	// implementation may retain data — callers hand the buffer over and
	// must not modify it afterwards.
	ImportSimState(data []byte) error
}

// IsTransient reports whether a send error is retryable — EAGAIN-shaped
// failures where the packet was not sent but a later attempt may
// succeed. Fault classification follows the error's own testimony (an
// errors.As match on `interface{ Transient() bool }`), so connection
// implementations decide which of their failures are worth a bounded
// retry and which must fail the shard.
func IsTransient(err error) bool {
	for e := err; e != nil; e = unwrap(e) {
		if t, ok := e.(interface{ Transient() bool }); ok {
			return t.Transient()
		}
	}
	return false
}

func unwrap(err error) error {
	if u, ok := err.(interface{ Unwrap() error }); ok {
		return u.Unwrap()
	}
	return nil
}

// ReplyKind classifies a parsed response.
type ReplyKind uint8

// Reply kinds.
const (
	KindTimeExceeded ReplyKind = iota
	KindDestUnreach
	KindEchoReply
	KindTCPRst
	KindOther
)

// Reply is one parsed probe response with recovered probe state.
type Reply struct {
	At     time.Duration // receive time
	From   netip.Addr    // responding source (interface address for TE)
	Target netip.Addr    // reconstructed probe destination
	Kind   ReplyKind
	Type   uint8         // ICMPv6 type (0 for TCP RST)
	Code   uint8         // ICMPv6 code
	Proto  uint8         // probe transport protocol
	TTL    uint8         // originating probe hop limit; 0 when unrecoverable
	RTT    time.Duration // 0 when the timestamp was unrecoverable
	// StateRecovered reports whether the Yarrp6 payload survived the
	// quotation (truncating middleboxes defeat recovery; the interface
	// address remains usable).
	StateRecovered bool
	// TargetRewritten reports that the quoted destination failed the
	// address-checksum cross-check, i.e. something rewrote the probe.
	TargetRewritten bool
}

// IsTimeExceeded reports whether the reply is an ICMPv6 Time Exceeded.
func (r *Reply) IsTimeExceeded() bool { return r.Kind == KindTimeExceeded }

// Observer receives every parsed reply a prober folds into its store,
// in arrival order, on the goroutine that folds them (Yarrp6's per-run
// fold goroutine, beside the one that sends), one call at a time and
// right after the reply's store fold. It is the streaming
// hook derived artifacts (the topology graph) are built through during
// a run instead of by post-hoc store scans. Implementations must not
// retain r's address values beyond the call any differently than a
// store would — Reply carries no slices into packet buffers, so
// retaining the struct itself is safe — and must stay allocation-light:
// they run on the packet fast path.
type Observer interface {
	OnReply(r Reply)
}
