package sched

import (
	"bytes"
	"context"
	"encoding/json"
	"sync/atomic"
	"testing"
	"time"

	"beholder/internal/core"
	"beholder/internal/netsim"
	"beholder/internal/probe"
	"beholder/internal/testutil"
)

// progressOf keeps a tenant stream's progress records — its sample and
// summary lines — in stream order.
func progressOf(stream []byte) []byte {
	var out []byte
	for _, line := range bytes.SplitAfter(stream, []byte("\n")) {
		if bytes.HasPrefix(line, []byte(`{"type":"sample"`)) || bytes.HasPrefix(line, []byte(`{"type":"summary"`)) {
			out = append(out, line...)
		}
	}
	return out
}

// eventsOf decodes a tenant stream's lifecycle events in stream order.
func eventsOf(t *testing.T, stream []byte) []Event {
	t.Helper()
	var out []Event
	for _, line := range bytes.Split(stream, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte(`{"event"`)) {
			continue
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatal(err)
		}
		out = append(out, ev)
	}
	return out
}

// TestStreamCarriesProgress: a streamed supervised campaign's sample and
// summary records are the bare 1-shard run's progress NDJSON byte for
// byte — written once, by the attempt that completes — whatever the
// shard count, however many periodic checkpoints cut it, after a
// watchdog failover, and across a drain and a resubmission of the drained
// artifact to a fresh supervisor. Its checkpoint events carry the run's
// cumulative counts.
func TestStreamCarriesProgress(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	const seed = 6211
	base := testSpec("t", "c", schedTargets(seed, 48))

	var want bytes.Buffer
	factory, err := newTestEnv(seed, nil).opener(&base)
	if err != nil {
		t.Fatal(err)
	}
	ref := coreConfigOf(base)
	ref.ProgressWriter = &want
	if _, _, err := core.NewCampaign(ref, factory).Run(); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name     string
		shards   int
		every    time.Duration
		failover bool // the first attempt's connections wedge
		redrive  bool // drained mid-run, resubmitted to a fresh supervisor
	}{
		{name: "1-shard", shards: 1},
		{name: "2-shards", shards: 2},
		{name: "1-shard-checkpointed", shards: 1, every: 25 * time.Millisecond},
		{name: "2-shards-checkpointed", shards: 2, every: 25 * time.Millisecond},
		{name: "watchdog-failover", shards: 1, failover: true},
		{name: "drain-and-resubmit", shards: 2, redrive: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			// Sends slowed on the supervision clock (virtual time
			// untouched) let checkpoints land mid-run; a gated first
			// attempt is drained mid-run; a wedged first attempt makes
			// the watchdog fail over, as in TestWatchdogFailover.
			clk := newFakeClock()
			var attempts atomic.Int32
			var wedged atomic.Bool
			var g *gate
			opt := Options{Tenants: []Tenant{{Name: "t"}}, StallBudget: 30 * time.Second, CheckpointEvery: c.every}
			newSup := func() *Supervisor {
				env := newTestEnv(seed, nil)
				op := func(spec *CampaignSpec) (core.ConnFactory, error) {
					inner, err := env.opener(spec)
					if err != nil {
						return nil, err
					}
					first := attempts.Add(1) == 1
					return func(shard int, start time.Duration) probe.Conn {
						v := inner(shard, start).(*netsim.Vantage)
						switch {
						case c.failover && first:
							return &wedgeConn{Vantage: v, clk: clk, budget: opt.StallBudget, wedged: &wedged}
						case c.failover:
							return v
						case c.redrive && first:
							return g.conn(v)
						}
						return &slowConn{Vantage: v, clk: clk, delay: time.Millisecond}
					}, nil
				}
				s, err := newSupervisor(op, opt, clk)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}

			var stream bytes.Buffer
			tap := newRetryTap(&stream)
			sp := base
			sp.Shards, sp.Batch, sp.Stream = c.shards, 1, tap
			s := newSup()
			if c.redrive {
				g = newGate(s, 25)
				if _, err := s.Submit(sp); err != nil {
					t.Fatal(err)
				}
				<-g.held
				ds := drainAll(t, s)
				if len(ds) != 1 || ds[0].Artifact == nil {
					t.Fatalf("drain returned %d campaigns, want one with an artifact", len(ds))
				}
				sp = ds[0].Spec
				sp.Resume = ds[0].Artifact
				s = newSup()
			}
			h, err := s.Submit(sp)
			if err != nil {
				t.Fatal(err)
			}
			if c.failover {
				overBackoff(t, clk, tap, h)
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			res, err := h.Wait(ctx)
			if err != nil {
				t.Fatal(err)
			}
			drainAll(t, s)
			if res.State != StateCompleted {
				t.Fatalf("state %v (%s)", res.State, res.Reason)
			}
			if c.failover && (res.Retries != 1 || !wedged.Load()) {
				t.Fatalf("%d failovers (wedged %v), want 1", res.Retries, wedged.Load())
			}

			if got := progressOf(stream.Bytes()); !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("stream progress differs from the bare 1-shard run's:\n%s\nwant\n%s", got, want.Bytes())
			}
			evs := eventsOf(t, stream.Bytes())
			if evs[0].Event != "submitted" || evs[len(evs)-1].Event != "completed" {
				t.Fatalf("stream opens %q and closes %q", evs[0].Event, evs[len(evs)-1].Event)
			}
			checkpoints, last := 0, int64(0)
			for _, ev := range evs {
				if ev.Event != "checkpoint" {
					continue
				}
				checkpoints++
				if ev.Probes <= last || ev.Probes > res.Stats.ProbesSent || ev.Replies > res.Stats.Replies {
					t.Fatalf("checkpoint %d counts %d probes / %d replies after %d, run total %d / %d",
						checkpoints, ev.Probes, ev.Replies, last, res.Stats.ProbesSent, res.Stats.Replies)
				}
				last = ev.Probes
			}
			if c.every > 0 && checkpoints < 2 {
				t.Fatalf("%d checkpoint events, want several", checkpoints)
			}
		})
	}
}
