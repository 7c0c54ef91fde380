package beholder

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"beholder/internal/graph"
	"beholder/internal/testutil"
	"beholder/internal/wire"
)

// TestFacadeScheduler drives the multi-tenant supervisor through the
// public API: two tenants' campaigns run concurrently over one
// Internet, each must reproduce the bare RunYarrp6 result byte for
// byte, the NDJSON stream must narrate the run, and a drained scheduler
// must leave nothing behind.
func TestFacadeScheduler(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	bare := func(name string, shards int) *Result {
		in := NewSmallInternet(11)
		v := in.NewVantage(name)
		targets, err := in.TargetSet("caida", 64, "lowbyte1", 0.2)
		if err != nil {
			t.Fatal(err)
		}
		res, err := v.RunYarrp6(targets, YarrpOptions{
			Rate: 2000, MaxTTL: 12, Key: 1, Fill: true, Shards: shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	in := NewSmallInternet(11)
	targets, err := in.TargetSet("caida", 64, "lowbyte1", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewTelemetry()
	sch, err := in.NewScheduler(SchedulerOptions{
		Tenants: []Tenant{{Name: "alice"}, {Name: "bob", RateBudget: 4000}},
		Workers: 2, Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	var stream bytes.Buffer
	ha, err := sch.Submit(in.NewVantage("sched-a"), targets, SubmitOptions{
		Tenant: "alice", Name: "sweep", Rate: 2000, MaxTTL: 12, Key: 1,
		Fill: true, Shards: 2, Stream: &stream,
	})
	if err != nil {
		t.Fatal(err)
	}
	hb, err := sch.Submit(in.NewVantage("sched-b"), targets, SubmitOptions{
		Tenant: "bob", Name: "sweep", Rate: 2000, MaxTTL: 12, Key: 1,
		Fill: true, Shards: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	resA, err := ha.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	resB, err := hb.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if resA.State != CampaignCompleted || resB.State != CampaignCompleted {
		t.Fatalf("states %v/%v", resA.State, resB.State)
	}

	// Supervisor neutrality through the facade: each tenant's store is
	// byte-identical to the bare single-campaign run from an
	// identically-named vantage on a fresh identically-seeded Internet.
	refA, refB := bare("sched-a", 2), bare("sched-b", 3)
	if !resA.Store.Equal(refA.Store()) {
		t.Fatal("alice's supervised store differs from bare run")
	}
	if !resB.Store.Equal(refB.Store()) {
		t.Fatal("bob's supervised store differs from bare run")
	}
	if !graph.FromStore(resA.Store, "sched-a", wire.ProtoICMPv6).Equal(refA.Graph()) {
		t.Fatal("alice's supervised graph differs from bare run")
	}

	// The stream narrates admission → start → progress → completion.
	dec := json.NewDecoder(&stream)
	var evs []CampaignEvent
	for dec.More() {
		var ev CampaignEvent
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		evs = append(evs, ev)
	}
	if len(evs) < 3 || evs[0].Event != "submitted" || evs[len(evs)-1].Event != "completed" {
		t.Fatalf("stream shape: %d events", len(evs))
	}

	if _, err := sch.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := sch.Submit(in.NewVantage("sched-a"), targets, SubmitOptions{Tenant: "alice", Name: "late"}); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submit: %v", err)
	}
	if n, ok := reg.Snapshot().Counter("sched_completed_total"); !ok || n != 2 {
		t.Fatalf("sched_completed_total = %d (%v)", n, ok)
	}
}

// TestMaxTTLRangeEverywhere: the three entry points that turn facade
// options into an engine configuration — RunYarrp6, adaptive RunYarrp6,
// Scheduler.Submit — share one mapping, so an out-of-range MaxTTL gets
// the same verdict from each instead of being truncated to a uint8 by
// some (300 used to probe to TTL 44, -1 to 255).
func TestMaxTTLRangeEverywhere(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	in := NewSmallInternet(11)
	all, err := in.TargetSet("caida", 64, "lowbyte1", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	targets := all[:4]
	sch, err := in.NewScheduler(SchedulerOptions{Tenants: []Tenant{{Name: "alice"}}})
	if err != nil {
		t.Fatal(err)
	}
	defer sch.Drain(context.Background())

	// probesPerTarget is how deep an accepted value must probe (zero
	// selects the default of 16); 0 marks a value that must be rejected.
	for _, tc := range []struct{ maxTTL, probesPerTarget int }{
		{-1, 0}, {0, 16}, {16, 16}, {255, 255}, {256, 0}, {300, 0},
	} {
		name := fmt.Sprintf("ttl-%d", tc.maxTTL)
		entries := map[string]func() (int64, error){
			"RunYarrp6": func() (int64, error) {
				res, err := in.NewVantage(name).RunYarrp6(targets, YarrpOptions{Rate: 4000, MaxTTL: tc.maxTTL, Key: 1})
				if err != nil {
					return 0, err
				}
				return res.ProbesSent / int64(len(targets)), nil
			},
			"adaptive": func() (int64, error) {
				res, err := in.NewVantage(name+"-a").RunYarrp6(targets, YarrpOptions{Rate: 4000, MaxTTL: tc.maxTTL, Key: 1,
					Adaptive: &AdaptiveOptions{EpochTargets: 4, MaxEpochs: 1, AliasMinHits: -1}})
				if err != nil {
					return 0, err
				}
				return res.ProbesSent / int64(res.Epochs[0].Targets), nil
			},
			"Submit": func() (int64, error) {
				h, err := sch.Submit(in.NewVantage(name+"-s"), targets, SubmitOptions{
					Tenant: "alice", Name: name, Rate: 4000, MaxTTL: tc.maxTTL, Key: 1})
				if err != nil {
					return 0, err
				}
				res, err := h.Wait(context.Background())
				if err != nil {
					return 0, err
				}
				return res.Stats.ProbesSent / int64(len(targets)), nil
			},
		}
		for entry, run := range entries {
			probes, err := run()
			if tc.probesPerTarget == 0 {
				want := fmt.Sprintf("beholder: MaxTTL %d out of range", tc.maxTTL)
				if err == nil || err.Error() != want {
					t.Errorf("%s MaxTTL %d: got (%d probes, %v), want error %q", entry, tc.maxTTL, probes, err, want)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s MaxTTL %d: %v", entry, tc.maxTTL, err)
			} else if probes != int64(tc.probesPerTarget) {
				t.Errorf("%s MaxTTL %d: %d probes per target, want %d", entry, tc.maxTTL, probes, tc.probesPerTarget)
			}
		}
	}
}

// TestSchedulerVantageBinding: every attempt of a supervised campaign
// opens its vantage by name, so a campaign still queued must not probe
// from a vantage submitted later under its name but attached elsewhere.
// That submission is refused; one of the same attachment is accepted,
// and both campaigns equal the bare run.
func TestSchedulerVantageBinding(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	in := NewSmallInternet(11)
	targets, err := in.TargetSet("caida", 64, "lowbyte1", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := in.NewScheduler(SchedulerOptions{Tenants: []Tenant{{Name: "alice"}}, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sch.Drain(context.Background())
	opt := func(name string) SubmitOptions {
		return SubmitOptions{Tenant: "alice", Name: name, Rate: 2000, Key: 1}
	}
	// The blocker holds the one worker while a and c queue behind it.
	var hs []*CampaignHandle
	for _, c := range []struct {
		name, vantage, kind string
		chain               int
	}{{"blocker", "blocker", "university", 4}, {"a", "X", "hosting", 3}, {"c", "X", "hosting", 3}} {
		h, err := sch.Submit(in.NewVantageAt(c.vantage, c.kind, c.chain), targets, opt(c.name))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		hs = append(hs, h)
	}
	if _, err := sch.Submit(in.NewVantageAt("X", "university", 4), targets, opt("b")); err == nil {
		t.Error("vantage X rebound to another attachment while campaigns a and c were queued")
	}
	bare, err := NewSmallInternet(11).NewVantageAt("X", "hosting", 3).RunYarrp6(targets, YarrpOptions{Rate: 2000, Key: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hs[1:] {
		res, err := h.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.State != CampaignCompleted || !res.Store.Equal(bare.Store()) {
			t.Errorf("campaign %s: %v, %d interfaces; bare run %d", res.Campaign, res.State, res.Store.NumInterfaces(), bare.NumInterfaces())
		}
	}
}
