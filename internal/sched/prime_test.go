package sched

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"beholder/internal/core"
	"beholder/internal/netsim"
	"beholder/internal/probe"
	"beholder/internal/testutil"
)

// slowPrimer slows the prime replay: every `every`-th replayed probe
// takes delay of the supervision clock. Virtual time, and so every
// result byte, is untouched; everything but PrimeRun promotes from the
// embedded vantage.
type slowPrimer struct {
	*netsim.Vantage
	clk   *fakeClock
	every int
	delay time.Duration
	n     int
}

// PrimeRun advances the clock before every `every`-th replayed probe,
// splitting the run there so the advance falls between the same probes
// it would between one-probe replays.
func (p *slowPrimer) PrimeRun(toks []int, ttls []uint8, at0, gap time.Duration) {
	from := 0
	for i, tok := range toks {
		if tok < 0 {
			continue
		}
		if p.n++; p.n%p.every == 0 {
			p.Vantage.PrimeRun(toks[from:i], ttls[from:i], at0+time.Duration(from)*gap, gap)
			p.clk.advance(p.delay)
			from = i
		}
	}
	p.Vantage.PrimeRun(toks[from:], ttls[from:], at0+time.Duration(from)*gap, gap)
}

// TestWatchdogSparesSlowReplay: the prime replay is uninterruptible and
// sends nothing, but it is not a stall. A 4-shard campaign whose replay
// takes several stall budgets of supervision time — with stretches
// where every released shard has already finished and only the replay
// is left to show life — must complete on its first attempt: the
// replay itself pulses the campaign heartbeat.
func TestWatchdogSparesSlowReplay(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	const (
		seed   = 5107
		budget = 100 * time.Millisecond
	)
	env := newTestEnv(seed, nil)
	clk := newFakeClock()
	op := func(spec *CampaignSpec) (core.ConnFactory, error) {
		inner, err := env.opener(spec)
		if err != nil {
			return nil, err
		}
		return func(shard int, start time.Duration) probe.Conn {
			// 20 ms per 1 000 replayed probes: the 36 k-probe replay below
			// lasts ~0.7 s, and a shard's 12 k-probe window is released
			// every ~0.24 s. Nothing else moves the clock, so the shards
			// finish their windows in no time at all.
			return &slowPrimer{Vantage: inner(shard, start).(*netsim.Vantage), clk: clk, every: 1000, delay: 20 * time.Millisecond}
		}, nil
	}
	s, err := newSupervisor(op, Options{Tenants: []Tenant{{Name: "t"}}, StallBudget: budget}, clk)
	if err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	sp := testSpec("t", "slow-replay", schedTargets(seed, 4000)) // 48 000 probes
	sp.Shards = 4
	sp.Stream = &stream
	began := clk.now()
	h, err := s.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := h.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if took := clk.now().Sub(began); took < 5*budget {
		t.Fatalf("campaign took %v: the replay never outlasted the %v stall budget", took, budget)
	}
	if res.State != StateCompleted || res.Retries != 0 {
		t.Fatalf("state %v retries %d reason %q err %v, want completed on the first attempt", res.State, res.Retries, res.Reason, res.Err)
	}
	drainAll(t, s)
	if strings.Contains(stream.String(), `"event":"retry"`) {
		t.Fatalf("tenant stream reports a retry:\n%s", stream.String())
	}
	bare, _, err := soloRun(t, seed, nil, sp)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Store.Equal(bare) {
		t.Fatal("store differs from the bare run")
	}
}
