package sched

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"beholder/internal/core"
	"beholder/internal/graph"
	"beholder/internal/probe"
	"beholder/internal/testutil"
)

// countingWriter records every Write call it receives.
type countingWriter struct {
	mu     sync.Mutex
	writes int
	buf    bytes.Buffer
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.writes++
	return w.buf.Write(p)
}

// unbufferedDeltas is the stream's reference: the delta observer as it
// was before buffering, one encoder write per novel reply.
type unbufferedDeltas struct {
	enc          *json.Encoder
	g            *graph.Graph
	spec         CampaignSpec
	nodes, edges int
}

func (o *unbufferedDeltas) OnReply(r probe.Reply) {
	o.g.OnReply(r)
	if n, e := o.g.NumNodes(), o.g.NumEdges(); n > o.nodes || e > o.edges {
		o.nodes, o.edges = n, e
		_ = o.enc.Encode(Event{Event: "delta", Tenant: o.spec.Tenant, Campaign: o.spec.Name, Nodes: n, Edges: e})
	}
}

// TestStreamBuffersDeltas: a tenant stream costs its writer far fewer
// writes than it carries events, and buffering is invisible in the
// bytes — they equal an unbuffered reference run's, event for event.
func TestStreamBuffersDeltas(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	const seed = 6211
	env := newTestEnv(seed, nil)
	s, err := New(Config{Opener: env.opener, Tenants: []Tenant{{Name: "t"}}})
	if err != nil {
		t.Fatal(err)
	}
	var w countingWriter
	// One shard: the order deltas arrive in is then the reply order, the
	// same in every run.
	sp := testSpec("t", "fill", schedTargets(seed, 400))
	sp.Stream = &w
	h, err := s.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := h.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.State != StateCompleted {
		t.Fatalf("state %v (%s)", res.State, res.Reason)
	}
	drainAll(t, s)

	got := w.buf.Bytes()
	events := bytes.Count(got, []byte("\n"))
	if events < 1000 {
		t.Fatalf("only %d events: the campaign is too small to show buffering", events)
	}
	if w.writes*10 > events {
		t.Fatalf("%d writes for %d events, want at least 10x fewer", w.writes, events)
	}

	// The reference: the same campaign bare, its deltas written straight
	// through an encoder, between the lifecycle events the supervisor
	// emits around a first-attempt run.
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	_ = enc.Encode(Event{Event: "submitted", Tenant: sp.Tenant, Campaign: sp.Name})
	_ = enc.Encode(Event{Event: "started", Tenant: sp.Tenant, Campaign: sp.Name, Attempt: 1})
	refEnv := newTestEnv(seed, nil)
	factory, err := refEnv.opener(&sp)
	if err != nil {
		t.Fatal(err)
	}
	ccfg := coreConfigOf(sp)
	ccfg.NewObserver = func(int) probe.Observer {
		return &unbufferedDeltas{enc: enc, g: graph.New(sp.Vantage), spec: sp}
	}
	if _, _, err := core.NewCampaign(ccfg, factory).Run(); err != nil {
		t.Fatal(err)
	}
	_ = enc.Encode(Event{Event: "completed", Tenant: sp.Tenant, Campaign: sp.Name,
		Probes: res.Stats.ProbesSent, Replies: res.Stats.Replies,
		Nodes: res.Graph.NumNodes(), Edges: res.Graph.NumEdges()})
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("buffered stream differs from the unbuffered reference (%d vs %d bytes)", len(got), want.Len())
	}
}
