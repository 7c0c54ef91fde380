package sched

import (
	"encoding/json"
	"io"
	"sync"
)

// Event is one lifecycle record on a tenant's NDJSON result stream:
// submitted, started, retry, checkpoint, and the terminal completed,
// incomplete or drained. Checkpoint and terminal events carry the run's
// cumulative probe and reply counts; terminal events with results also
// carry the node and edge counts of the campaign's graph (graph.FromStore
// of the result's store, built for this event alone).
type Event struct {
	Event    string `json:"event"`
	Tenant   string `json:"tenant"`
	Campaign string `json:"campaign"`
	Nodes    int    `json:"nodes,omitempty"`
	Edges    int    `json:"edges,omitempty"`
	Attempt  int    `json:"attempt,omitempty"`
	Reason   string `json:"reason,omitempty"`
	Probes   int64  `json:"probes,omitempty"`
	Replies  int64  `json:"replies,omitempty"`
}

// stream is one tenant's result stream. The supervisor writes lifecycle
// events to it, and the campaign writes its progress NDJSON (sample and
// summary records) to it once, from the attempt that completes; both go
// through Write under one mutex, so the tenant's writer need not be
// concurrency-safe. Write errors are swallowed: a broken tenant sink
// must not fail the campaign.
type stream struct {
	mu sync.Mutex
	w  io.Writer
}

func newStream(w io.Writer) *stream {
	if w == nil {
		return nil
	}
	return &stream{w: w}
}

func (st *stream) Write(p []byte) (int, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	_, _ = st.w.Write(p) // a broken tenant sink must not fail the campaign
	return len(p), nil
}

// event writes one lifecycle record; nil streams swallow everything so
// callers never branch.
func (st *stream) event(ev Event) {
	if st == nil {
		return
	}
	line, _ := json.Marshal(ev)
	st.Write(append(line, '\n'))
}
