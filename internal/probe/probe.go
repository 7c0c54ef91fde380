// Package probe defines the prober-side plumbing shared by Yarrp6 and the
// baseline probers: the vantage connection contract, parsed reply records,
// and the trace store that accumulates campaign results.
//
// Conn abstracts the vantage point the way a raw IPv6 socket would: probers
// hand it complete wire-format packets and read back complete wire-format
// replies. netsim.Vantage satisfies it; a PF_PACKET-backed implementation
// would slot in for live measurement without touching prober code.
package probe

import (
	"net/netip"
	"time"
)

// Conn is the packet conduit and virtual clock at a vantage point.
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
}

// BatchConn is the batched extension of Conn (sendmmsg / recvmmsg
// shaped). netsim.Vantage implements it; a raw-socket implementation
// would map SendBatch to sendmmsg and RecvBatch to recvmmsg. Yarrp6
// requires it — its one send loop is batched; the baseline probers and
// alias detection use the single-packet Conn contract alone.
type BatchConn interface {
	Conn
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
}

// ConnCheckpointer is the optional checkpoint extension of Conn: a
// connection that can export its undelivered replies and accept them
// back after a resume. netsim.Vantage implements it; a live raw-socket
// implementation has no virtual in-flight queue and simply omits it
// (the kernel's own queue drains into Recv regardless). Campaign
// checkpointing uses it so that interrupt-at-any-instant plus resume
// replays the uninterrupted run byte for byte.
type ConnCheckpointer interface {
	// ExportPending visits every undelivered reply in delivery order;
	// the bytes are only valid during the callback.
	ExportPending(fn func(at time.Duration, data []byte))
	// InjectReply enqueues a copy of reply bytes for delivery at
	// virtual instant at.
	InjectReply(at time.Duration, data []byte)
}

// Primer is the optional window-priming extension of Conn: a connection
// that can replay the probe schedule preceding a permutation window so
// that history-dependent response state (router ICMPv6 token buckets)
// opens at the levels the serial schedule would have left. netsim.Vantage
// implements it; a live raw-socket connection probes a network that
// already carries its own history and simply omits it. Yarrp6 primes a
// window-sliced run ([PermStart, PermEnd) with PermStart > 0) through
// this interface, which is what makes N-shard reply counters match the
// serial run even past ICMPv6 rate-limit saturation.
//
// The replay hands the connection runs of consecutive schedule
// positions rather than one probe at a time, so a connection can load a
// whole run's state before it applies the run in order (netsim gathers
// each run's plans, steps and router rows first).
type Primer interface {
	// BeginPrime opens a replay: PrimeFlow and PrimeRun evaluate probes
	// at explicit replayed instants, mutating rate-limiter state only —
	// no replies, no stats, no clock movement.
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
	// schedule order.
	PrimeRun(toks []int, ttls []uint8, at0, gap time.Duration)
	// EndPrime closes the replay.
	EndPrime()
}

// SimStateCheckpointer is the optional simulator-state extension of
// Conn: a connection that can export its history-dependent response
// state (router token-bucket levels) as an opaque blob and restore it
// after a resume. netsim.Vantage implements it; live connections omit
// it. Campaign checkpointing stores the blob in the artifact so a
// resumed run is byte-exact even when a rate limiter was saturated
// across the interrupt instant — including bucket drain from fill
// probes, which priming alone cannot replay.
type SimStateCheckpointer interface {
	// ExportSimState appends the state blob to buf and returns the
	// extended slice.
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
