package beholder

// Supervision study: the multi-tenant campaign scheduler driven over one
// shared internetwork. Three tenants' campaigns run concurrently under a
// Scheduler and each result is compared byte-for-byte against the same
// campaign run bare on a fresh identically-seeded universe — the
// supervisor must be invisible in the data. A fourth campaign runs
// against a virtual-time deadline to show graceful degradation. Not part
// of Experiments.All(): the paper's evaluation has no scheduling
// figures; run it with `beholder -sched`.

import (
	"context"
	"time"

	"beholder/internal/graph"
	"beholder/internal/target"
	"beholder/internal/wire"
)

// SchedStudy runs concurrent supervised campaigns and tabulates each
// tenant's outcome against its bare single-campaign baseline.
func (e *Experiments) SchedStudy() *Table {
	t := &Table{
		ID:    "Sched (supervision)",
		Title: "Supervised multi-tenant campaigns vs bare runs (shared internetwork, 3 workers)",
		Headers: []string{"Tenant", "Campaign", "Shards", "State", "Probes",
			"Replies", "Nodes", "Edges", "Store vs bare"},
	}

	set := e.targetSet("caida", 64, target.LowByte1)
	addrs := set.Targets.Addrs()

	type campaign struct {
		tenant, name, vantage string
		shards                int
		rate                  float64
		key                   uint64
		deadline              time.Duration
	}
	campaigns := []campaign{
		{tenant: "isp-lab", name: "sweep", vantage: "SCHED-A", shards: 2, rate: e.opt.Rate, key: 21},
		{tenant: "campus", name: "census", vantage: "SCHED-B", shards: 3, rate: e.opt.Rate, key: 22},
		{tenant: "archive", name: "refresh", vantage: "SCHED-C", shards: 1, rate: e.opt.Rate, key: 23},
		{tenant: "campus", name: "rushed", vantage: "SCHED-D", shards: 2, rate: e.opt.Rate, key: 24,
			deadline: deadlineFor(len(addrs), e.opt.Rate)},
	}

	// Supervised pass: all four campaigns admitted at once, three
	// running concurrently.
	e.in.Reset()
	sch, err := e.in.NewScheduler(SchedulerOptions{
		Tenants: []Tenant{
			{Name: "isp-lab", Priority: 1},
			{Name: "campus"},
			{Name: "archive", RateBudget: 2 * e.opt.Rate},
		},
		Workers: 3,
	})
	if err != nil {
		panic(err)
	}
	handles := make([]*CampaignHandle, len(campaigns))
	for i, c := range campaigns {
		handles[i], err = sch.Submit(e.in.NewVantageAt(c.vantage, "university", 4), addrs, SubmitOptions{
			Tenant: c.tenant, Name: c.name, Rate: c.rate, MaxTTL: 16,
			Key: c.key, Fill: true, Shards: c.shards, Deadline: c.deadline,
		})
		if err != nil {
			panic(err)
		}
	}
	results := make([]*CampaignResult, len(campaigns))
	for i, h := range handles {
		if results[i], err = h.Wait(context.Background()); err != nil {
			panic(err)
		}
	}
	if _, err := sch.Drain(context.Background()); err != nil {
		panic(err)
	}

	// Baseline pass: each campaign bare on a reset universe from an
	// identically-named vantage. Deadline campaigns are interrupted at
	// the same virtual instant for an apples-to-apples partial store.
	for i, c := range campaigns {
		e.in.Reset()
		v := e.in.NewVantageAt(c.vantage, "university", 4)
		bare, err := v.RunYarrp6(addrs, YarrpOptions{
			Rate: c.rate, MaxTTL: 16, Key: c.key, Fill: true,
			Shards: c.shards, InterruptAt: c.deadline,
		})
		if err != nil && (c.deadline == 0 || err != ErrInterrupted) {
			panic(err)
		}
		res := results[i]
		equal := "equal"
		if !res.Store.Equal(bare.Store()) {
			equal = "differs"
		}
		if c.deadline > 0 {
			equal += " (partial)"
		}
		g := graph.FromStore(res.Store, c.vantage, wire.ProtoICMPv6)
		state := res.State.String()
		if res.Reason != "" {
			state += "/" + res.Reason
		}
		t.AddRow(c.tenant, c.name, itoa(c.shards), state,
			kfmt(res.Stats.ProbesSent), kfmt(res.Stats.Replies),
			itoa(g.NumNodes()), itoa(g.NumEdges()), equal)
	}
	t.Notes = append(t.Notes,
		"Each supervised campaign's merged store is compared against the same campaign run bare on a reset universe: token buckets, delivery queues, and reply authentication are all epoch-scoped to the campaign's vantage clone, so co-tenants cannot perturb each other's bytes.",
		"The supervisor pins every campaign attempt to virtual epoch zero, which is what keeps fresh runs, watchdog failovers, and drain/resume continuations on one schedule.",
		"The deadline campaign is interrupted at the same virtual instant in both passes, so even its partial store must match byte-for-byte.")
	return t
}

// deadlineFor places a virtual deadline about halfway through a
// campaign's send window so the interrupted store is meaningfully
// partial.
func deadlineFor(targets int, rate float64) time.Duration {
	return time.Duration(float64(targets*16) / rate / 2 * float64(time.Second))
}
