package sched

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"

	"beholder/internal/graph"
	"beholder/internal/probe"
)

// Event is one NDJSON record on a tenant's result stream. Lifecycle
// events (submitted, started, retry, drained, completed, incomplete)
// come from the supervisor; delta events come from the per-shard graph
// observers as the campaign's topology subgraphs grow, so a tenant
// watching its stream sees discovery arrive incrementally instead of
// waiting for the final artifact.
type Event struct {
	Event    string `json:"event"`
	Tenant   string `json:"tenant"`
	Campaign string `json:"campaign"`
	Shard    int    `json:"shard,omitempty"`
	Nodes    int    `json:"nodes,omitempty"`
	Edges    int    `json:"edges,omitempty"`
	Attempt  int    `json:"attempt,omitempty"`
	Reason   string `json:"reason,omitempty"`
	Probes   int64  `json:"probes,omitempty"`
	Replies  int64  `json:"replies,omitempty"`
}

// stream is a locked, buffered NDJSON encoder over one tenant's writer.
// Shard observers emit concurrently from their own goroutines, so every
// event is serialized here. Delta events — one per novel reply — only
// fill the buffer; lifecycle events flush it, and so does the
// supervisor's watchdog poll, so a tailing tenant sees deltas at most
// one poll late while the writer is spared a write per reply. Bytes and
// event order are exactly the unbuffered stream's.
type stream struct {
	mu  sync.Mutex
	buf *bufio.Writer
	enc *json.Encoder
}

func newStream(w io.Writer) *stream {
	if w == nil {
		return nil
	}
	buf := bufio.NewWriter(w)
	return &stream{buf: buf, enc: json.NewEncoder(buf)}
}

// event encodes one lifecycle record and flushes everything buffered up
// to and including it; nil streams swallow everything so callers never
// branch.
func (st *stream) event(ev Event) {
	st.delta(ev)
	st.flush()
}

// delta encodes one record into the buffer, leaving the flush to the
// next lifecycle event or poll.
func (st *stream) delta(ev Event) {
	if st == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	_ = st.enc.Encode(ev) // a broken tenant sink must not fail the campaign
}

// flush hands the buffered records to the writer.
func (st *stream) flush() {
	if st == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	_ = st.buf.Flush() // as above
}

// deltaObserver is the per-shard streaming hook: it folds every stored
// reply into its own topology subgraph and emits a delta event whenever
// the subgraph grows. NumNodes/NumEdges are O(1) reads, so the novelty
// check costs two comparisons per reply.
type deltaObserver struct {
	st       *stream
	g        *graph.Graph
	tenant   string
	campaign string
	shard    int
	nodes    int
	edges    int
}

func newDeltaObserver(st *stream, vantage, tenant, campaign string, shard int) *deltaObserver {
	return &deltaObserver{st: st, g: graph.New(vantage), tenant: tenant, campaign: campaign, shard: shard}
}

func (o *deltaObserver) OnReply(r probe.Reply) {
	o.g.OnReply(r)
	if n, e := o.g.NumNodes(), o.g.NumEdges(); n > o.nodes || e > o.edges {
		o.nodes, o.edges = n, e
		o.st.delta(Event{Event: "delta", Tenant: o.tenant, Campaign: o.campaign,
			Shard: o.shard, Nodes: n, Edges: e})
	}
}
