package netsim

import (
	"bytes"
	"crypto/sha256"
	"net/netip"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"beholder/internal/ipv6"
	"beholder/internal/wire"
)

// cloneTrace is what one clone of a shared-table run produced: a digest
// of every reply with its delivery instant, and its exported bucket
// state.
type cloneTrace struct {
	replies  [sha256.Size]byte
	received int64
	sim      []byte
}

// driveClone walks dsts from offset off three times, every destination
// at three TTLs and fast enough to drain shared buckets, and returns the
// digest of every reply with its delivery instant and the exported
// bucket state.
func driveClone(c *Vantage, dsts []netip.Addr, off int) (tr cloneTrace, err error) {
	h := sha256.New()
	buf := make([]byte, wire.MinMTU)
	drain := func() {
		for {
			n, ok := c.Recv(buf)
			if !ok {
				return
			}
			at := c.Now()
			h.Write([]byte{byte(at), byte(at >> 8), byte(at >> 16), byte(at >> 24), byte(at >> 32), byte(n), byte(n >> 8)})
			h.Write(buf[:n])
		}
	}
	for round := 0; round < 3; round++ {
		for j := range dsts {
			d := dsts[(off+j)%len(dsts)]
			if err := c.Send(buildEchoProbe(c.LocalAddr(), d, uint8(2+3*round+j%3))); err != nil {
				return tr, err
			}
			c.Sleep(200 * time.Microsecond)
			drain()
		}
	}
	c.Sleep(3 * time.Second)
	drain()
	h.Sum(tr.replies[:0])
	tr.received = c.Stats.Received
	tr.sim = c.ExportSimState(nil)
	return tr, nil
}

// driveSharedTable runs driveClone on four concurrent clones of v —
// clone k from offset k·n/4, so their flow sequences overlap — and
// returns each clone's trace, the probes routed, and the table lookups
// the clones counted.
func driveSharedTable(t *testing.T, u *Universe, v *Vantage) (traces [4]cloneTrace, routed, lookups int64) {
	t.Helper()
	dsts := primeTargets(u, 200)
	var wg sync.WaitGroup
	var clones [4]*Vantage
	for k := range clones {
		clones[k] = v.Clone(time.Duration(k) * time.Second)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if traces[k], err = driveClone(clones[k], dsts, k*len(dsts)/4); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for _, c := range clones {
		routed += c.Stats.Sent
		lookups += c.Stats.PlanHits + c.Stats.PlanMisses
	}
	return traces, routed, lookups
}

// TestSharedPlanTableConcurrent: four clones publishing into and reading
// from one table — one that must rebuild itself under them, and one
// capped at a single slot where every flow evicts every other — see exactly
// the replies and leave exactly the bucket state of clones that plan
// every probe from scratch, and every routed probe is counted as one
// table hit or miss. Run under -race: the table and the router registry
// are the only state the clones share on the packet path, and the
// registry, interned into concurrently, must still number each router
// once.
func TestSharedPlanTableConcurrent(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	run := func(setup func(v *Vantage)) ([4]cloneTrace, *Vantage) {
		u := testUniverse(t)
		v := u.NewVantage(VantageSpec{Name: "shared-table", Kind: KindUniversity, ChainLen: 3})
		setup(v)
		traces, routed, lookups := driveSharedTable(t, u, v)
		if routed != 4*3*200 || lookups != routed {
			t.Fatalf("routed %d probes (want %d), counted %d table lookups", routed, 4*3*200, lookups)
		}
		return traces, v
	}
	want, _ := run(func(v *Vantage) { v.plans = nil })
	var total int64
	for _, tr := range want {
		total += tr.received
	}
	if total == 0 {
		t.Fatal("reference run received nothing")
	}
	check := func(name string, got [4]cloneTrace) {
		t.Helper()
		for k := range got {
			if got[k].replies != want[k].replies || got[k].received != want[k].received {
				t.Errorf("%s: clone %d replies differ from the table-less run (%d vs %d received)", name, k, got[k].received, want[k].received)
			}
			if !bytes.Equal(got[k].sim, want[k].sim) {
				t.Errorf("%s: clone %d exported sim state differs from the table-less run", name, k)
			}
		}
	}

	got, v := run(func(v *Vantage) { v.plans = newPlanTable(64, planTableMaxSlots) })
	check("growing from 64 slots", got)
	checkRegistry(t, v, primeTargets(v.u, 200))
	slots, cores, growths, routers := v.PlanTableStats()
	t.Logf("from 64: %d slots, %d cores, %d growths, %d routers; reference run received %d replies", slots, cores, growths, routers, total)
	if growths < 2 || slots != 64<<(2*growths) {
		t.Errorf("table: %d growths to %d slots, want >= 2 growths of 4x from 64", growths, slots)
	}
	if cores < 150 || cores > 200 {
		t.Errorf("table holds %d cores after 200 flows", cores)
	}

	got, v = run(func(v *Vantage) { v.plans = newPlanTable(1, 1) })
	check("capped at one slot", got)
	checkRegistry(t, v, primeTargets(v.u, 200))
	if slots, _, growths, _ := v.PlanTableStats(); slots != 1 || growths != 0 {
		t.Errorf("capped table: %d slots after %d growths, want 1 and 0", slots, growths)
	}
}

// TestPlanTableGrowthKeepsPlans: a serial vantage that outgrows its
// table several times over misses each flow once (but for the odd full
// window while the table is tiny) — the rebuilds carry every published
// core along — and a clone's hits on those cores count as served by
// another vantage. The same holds, with no eviction at all, for the
// table a vantage gets by default.
func TestPlanTableGrowthKeepsPlans(t *testing.T) {
	u := testUniverse(t)
	spec := VantageSpec{Name: "grow", Kind: KindUniversity, ChainLen: 3}
	v := u.NewVantage(spec)
	v.plans = newPlanTable(16, planTableMaxSlots)
	dsts := primeTargets(u, 300)
	flows := make(map[[16]byte]bool)
	for _, d := range dsts {
		flows[d.As16()] = true
	}
	for ttl := uint8(1); ttl <= 3; ttl++ {
		for _, d := range dsts {
			if err := v.Send(buildEchoProbe(v.LocalAddr(), d, ttl)); err != nil {
				t.Fatal(err)
			}
			v.Sleep(time.Millisecond)
		}
	}
	slots, cores, growths, _ := v.PlanTableStats()
	t.Logf("%d flows: %d slots, %d cores, %d growths, %d misses, %d evictions", len(flows), slots, cores, growths, v.Stats.PlanMisses, v.Stats.PlanEvictions)
	if extra := v.Stats.PlanMisses - int64(len(flows)); extra < 0 || extra > 2*v.Stats.PlanEvictions || v.Stats.PlanEvictions > int64(len(flows)/50) {
		t.Errorf("%d misses, %d evictions over %d flows: growth lost plans", v.Stats.PlanMisses, v.Stats.PlanEvictions, len(flows))
	}
	if growths < 3 || cores*4 > slots+4 || cores < len(flows)-int(v.Stats.PlanEvictions) {
		t.Errorf("table at %d slots, %d cores, %d growths for %d flows", slots, cores, growths, len(flows))
	}
	if v.Stats.SharedPlanHits != 0 {
		t.Errorf("%d shared hits on a lone vantage", v.Stats.SharedPlanHits)
	}

	w := v.Clone(0)
	for _, d := range dsts {
		if err := w.Send(buildEchoProbe(w.LocalAddr(), d, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if w.Stats.PlanHits == 0 || w.Stats.SharedPlanHits != w.Stats.PlanHits {
		t.Errorf("clone: %d hits, %d of them on another vantage's cores; want all", w.Stats.PlanHits, w.Stats.SharedPlanHits)
	}

	// The table every TestConfig vantage gets, driven past the 8 192
	// fixed slots TestConfig once pinned (daemon-burst probes 11 337
	// flows from one identity): it grows past them, every flow misses
	// once and hits at its second TTL, and nothing is evicted.
	const nFlows = 10000
	big := u.NewVantage(VantageSpec{Name: "grow-default", Kind: KindUniversity, ChainLen: 3})
	gw := dsts[0] // distinct IIDs under one routed /64: one flow each
	for ttl := uint8(2); ttl <= 3; ttl++ {
		for i := range nFlows {
			if err := big.Send(buildEchoProbe(big.LocalAddr(), ipv6.WithIID(gw, uint64(i)+2), ttl)); err != nil {
				t.Fatal(err)
			}
		}
	}
	slots, _, _, _ = big.PlanTableStats()
	if st := big.Stats; st.PlanEvictions != 0 || st.PlanMisses != nFlows || st.PlanHits != nFlows || slots <= 8192 {
		t.Errorf("%d flows on the default table: %d misses, %d hits, %d evictions at %d slots; want one miss per flow, no eviction, > 8192 slots",
			nFlows, st.PlanMisses, st.PlanHits, st.PlanEvictions, slots)
	}
}

// checkRegistry holds v's router registry, after flows to dsts were
// planned into it by concurrent clones, to the keys those plans name:
// replanning every flow from scratch numbers no new router and yields,
// step for step, the ordinals of the cores the table published; every
// ordinal maps back to the key its step was derived from; and the
// registry holds exactly the distinct keys the plans name, each once.
func checkRegistry(t *testing.T, v *Vantage, dsts []netip.Addr) {
	t.Helper()
	reg := v.reg
	before := reg.size()
	w := v.Clone(0)
	w.plans = nil
	named := make(map[RouterKey]bool)
	planned := make(map[ipv6.U128][]coreStep)
	for _, d := range dsts {
		if err := w.dec.Decode(buildEchoProbe(w.LocalAddr(), d, 2)); err != nil {
			t.Fatal(err)
		}
		dst := ipv6.FromAddr(d)
		c := w.computePlan(&w.dec, dst, flowKeyOf(&w.dec))
		for i, st := range c.steps {
			if hop := reg.hops[st.ord]; hop != w.hops[i] {
				t.Fatalf("flow %s step %d: ordinal %d names %v, the plan derived %v", d, i, st.ord, hop, w.hops[i])
			}
			named[w.hops[i].key] = true
		}
		planned[dst] = append([]coreStep(nil), c.steps...)
	}
	if after := reg.size(); after != before {
		t.Errorf("replanning the driven flows numbered %d new routers", after-before)
	}
	if len(reg.hops) != len(named) || len(reg.ords) != len(reg.hops) {
		t.Errorf("registry numbers %d routers (%d in its index) for the %d distinct routers the plans name", len(reg.hops), len(reg.ords), len(named))
	}
	for k, o := range reg.ords {
		if reg.hops[o].key != k {
			t.Fatalf("key %v indexed at ordinal %d, which names %v", k, o, reg.hops[o].key)
		}
	}
	if v.plans == nil {
		return
	}
	tab := v.plans.tab.Load()
	for i := range tab.slots {
		if c := tab.slots[i].Load(); c != nil && !slices.Equal(c.steps, planned[c.dst]) {
			t.Errorf("published core for %v differs from its replanned steps", c.dst.Addr())
		}
	}
}

// TestOrdinalsInvisible: router ordinals are host-side names. Two
// vantages of one identity — in two universes of one seed, so each has
// a registry of its own — plan the same flows in opposite orders and so
// number the same routers differently; driven through one schedule,
// both see exactly the replies and leave exactly the bucket state of a
// run without a plan table.
func TestOrdinalsInvisible(t *testing.T) {
	spec := VantageSpec{Name: "ordinals", Kind: KindUniversity, ChainLen: 3}
	dsts := primeTargets(testUniverse(t), 120)
	run := func(order []netip.Addr, table bool) (cloneTrace, *Vantage) {
		t.Helper()
		v := testUniverse(t).NewVantage(spec)
		for _, d := range order {
			if err := v.dec.Decode(buildEchoProbe(v.LocalAddr(), d, 1)); err != nil {
				t.Fatal(err)
			}
			v.lookupPlan(&v.dec)
		}
		if !table {
			v.plans = nil
		}
		tr, err := driveClone(v.Clone(0), dsts, 0)
		if err != nil {
			t.Fatal(err)
		}
		return tr, v
	}
	want, _ := run(nil, false)
	if want.received == 0 {
		t.Fatal("reference run received nothing")
	}
	reversed := slices.Clone(dsts)
	slices.Reverse(reversed)
	fwd, a := run(dsts, true)
	rev, b := run(reversed, true)
	renumbered := 0
	for k, o := range a.reg.ords {
		if b.reg.ords[k] != o {
			renumbered++
		}
	}
	if renumbered == 0 || len(a.reg.ords) != len(b.reg.ords) {
		t.Fatalf("opposite planning orders numbered %d and %d routers, %d differently", len(a.reg.ords), len(b.reg.ords), renumbered)
	}
	for name, got := range map[string]cloneTrace{"forward": fwd, "reversed": rev} {
		if got.replies != want.replies || got.received != want.received {
			t.Errorf("%s numbering: replies differ from the table-less run (%d vs %d received)", name, got.received, want.received)
		}
		if !bytes.Equal(got.sim, want.sim) {
			t.Errorf("%s numbering: exported sim state differs from the table-less run", name)
		}
	}
}
