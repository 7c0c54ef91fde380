package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"beholder"
	"beholder/internal/probe"
	"beholder/internal/target"
)

// tenantPlan is everything derived from the run seed for a daemon
// workload: the tenants' scripts, the same campaigns as in-process
// inputs (for the solo reference runs and the layer pass), and which
// campaigns get which check.
type tenantPlan struct {
	in     *beholder.Internet // same-seed universe for the solo reference runs
	script script
	input  func(tenant, i int) campaignInput
	check  func(i int) bool // persisted store must byte-equal a solo run
	layers []campaignInput  // what the traced layer pass replays
}

// daemonDef is one daemon workload.
type daemonDef struct {
	name      string
	small     bool
	args      []string // beyond -sim-seed, -workers and -tenants
	instances int      // fresh daemons measured per run
	plan      func(in *beholder.Internet, p params, seed int64, seconds float64) (*tenantPlan, error)
}

func daemonWorkload(name string, p params) (daemonDef, bool) {
	switch name {
	case "daemon-burst":
		return daemonDef{name: name, small: true, instances: p.burstInstances,
			args: []string{"-checkpoint-every", "0"}, plan: planBurst}, true
	case "daemon-checkpointed":
		return daemonDef{name: name, small: p.small, instances: 1,
			args: []string{"-checkpoint-every", p.ckptEvery.String()}, plan: planCheckpointed}, true
	}
	return daemonDef{}, false
}

const daemonTenants = 2 // one closed-loop client each; never more than nproc

// Nominal paces that size a measured region's campaign count from
// --seconds: daemon-burst campaigns per second and client, and seconds
// per daemon-checkpointed campaign.
const (
	burstRate   = 35.0
	ckptSeconds = 4.0
)

func submitBody(tenant int, name string, key uint64, shards int, targets string) []byte {
	return []byte(fmt.Sprintf(`{"tenant":"t%d","name":%q,"rate":%d,"maxttl":%d,"key":%d,"shards":%d,"targets":%s}`,
		tenant, name, probeRate, probeMaxTTL, key, shards, targets))
}

// planBurst scripts many small campaigns. Each tenant shuffles the pool
// once (by the run seed) and cuts the shuffle into consecutive
// burstTargets-sized subsets; its i-th campaign probes subset i mod n
// under a key of its own. The measured count is a whole number of such
// cycles, so every run covers each tenant's pool evenly and the yield
// does not depend on which subsets a seed happened to draw.
func planBurst(in *beholder.Internet, p params, seed int64, seconds float64) (*tenantPlan, error) {
	pool, err := seedTargets(in, p, "tum", target.LowByte1, p.burstPoolScale)
	if err != nil {
		return nil, err
	}
	cycle := len(pool) / p.burstTargets
	if cycle == 0 {
		return nil, fmt.Errorf("daemon-burst: pool of %d targets, need %d", len(pool), p.burstTargets)
	}
	type subset struct {
		targets []netip.Addr
		json    string
	}
	subsets := make([][]subset, daemonTenants)
	for t := range subsets {
		order := rand.New(rand.NewSource(int64(deriveKey(seed, keyBurstSubset, t)))).Perm(len(pool))
		for j := 0; j < cycle; j++ {
			s := subset{targets: make([]netip.Addr, 0, p.burstTargets)}
			for _, k := range order[j*p.burstTargets : (j+1)*p.burstTargets] {
				s.targets = append(s.targets, pool[k])
			}
			s.json = targetsJSON(s.targets)
			subsets[t] = append(subsets[t], s)
		}
	}
	key := func(t, i int) uint64 { return deriveKey(seed, keyBurstCampaign, t<<24|i) }
	pl := &tenantPlan{
		in: in,
		script: script{
			tenants: daemonTenants, warm: p.burstWarm,
			count:  cycle * max(1, int(seconds*burstRate/float64(cycle)+0.5)),
			probes: int64(p.burstTargets) * probeMaxTTL,
			body: func(t, i int) (string, []byte) {
				name := "c" + strconv.Itoa(i)
				return name, submitBody(t, name, key(t, i), 1, subsets[t][i%cycle].json)
			},
		},
		input: func(t, i int) campaignInput {
			return campaignInput{targets: subsets[t][i%cycle].targets, key: key(t, i), shards: 1, graph: true}
		},
		check: func(i int) bool { return i%p.burstCheck == 0 },
	}
	for i := 0; i < p.layerBurst; i++ {
		pl.layers = append(pl.layers, pl.input(0, i))
	}
	return pl, nil
}

// planCheckpointed scripts few large campaigns: every campaign probes
// the whole target set in 2 shards; a tenant reuses its key, so one solo
// run per tenant verifies every one of its campaigns.
func planCheckpointed(in *beholder.Internet, p params, seed int64, seconds float64) (*tenantPlan, error) {
	targets, err := seedTargets(in, p, "tum", target.LowByte1, p.ckptScale)
	if err != nil {
		return nil, err
	}
	frag := targetsJSON(targets)
	key := func(t int) uint64 { return deriveKey(seed, keyCkptTenant, t) }
	pl := &tenantPlan{
		in: in,
		script: script{
			tenants: daemonTenants, warm: p.ckptWarm,
			count:  max(1, int(seconds/ckptSeconds+0.5)),
			probes: int64(len(targets)) * probeMaxTTL,
			body: func(t, i int) (string, []byte) {
				name := "c" + strconv.Itoa(i)
				return name, submitBody(t, name, key(t), p.ckptShards, frag)
			},
		},
		input: func(t, _ int) campaignInput {
			return campaignInput{targets: targets, key: key(t), shards: p.ckptShards, graph: true}
		},
		check: func(int) bool { return true },
	}
	pl.layers = []campaignInput{pl.input(0, 0)}
	return pl, nil
}

// instance is one daemon's measured region.
type instance struct {
	samples []sample
	delta   counters
	wall    time.Duration
	rssMB   float64
	ifaces  int64    // unique interfaces, summed over the measured campaigns
	digest  [32]byte // of the measured campaigns' persisted stores, in script order
}

// runInstance sets a daemon up (timed), drives the script sized for a
// measured region of about seconds against it, verifies what it
// persisted, and tears it down. With seconds = 0 it only times the
// set-up.
func runInstance(ctx context.Context, d daemonDef, p params, seed int64, e env, seconds float64, r *result) (inst *instance, plan *tenantPlan, setup time.Duration, err error) {
	syscall.Sync() // start from a quiet disk, whatever ran before
	t0 := time.Now()
	in := newInternet(d.small)
	if plan, err = d.plan(in, p, seed, seconds); err != nil {
		return nil, nil, 0, err
	}
	args := append([]string{"-sim-seed", strconv.Itoa(universeSeed), "-workers", "2", "-tenants", "t0,t1"}, d.args...)
	if d.small {
		args = append(args, "-small")
	}
	proc, err := startDaemon(ctx, e.daemonBin, e.tmp, args...)
	if err != nil {
		return nil, nil, 0, err
	}
	defer proc.stop()
	setup = time.Since(t0)
	if seconds == 0 {
		return nil, plan, setup, nil
	}
	tl, err := newTailer(proc.stateDir)
	if err != nil {
		return nil, nil, 0, err
	}
	// The region ends by count; the limit only stops a daemon that has
	// become several times slower than the one the counts were sized on.
	samples, delta, start, end, err := drive(ctx, proc, tl, plan.script, time.Duration(3*seconds*float64(time.Second)))
	tl.close()
	if err != nil {
		return nil, nil, 0, fmt.Errorf("%s: %w\n%s", d.name, err, proc.stderrTail())
	}
	inst = &instance{delta: delta, wall: end.Sub(start), rssMB: proc.peakRSSMB()}
	if err := inst.verify(samples, plan, proc.stateDir, r); err != nil {
		return nil, nil, 0, err
	}
	if delta.sinkFailures > 0 {
		r.fail("%v checkpoint sink errors", delta.sinkFailures)
	}
	if len(inst.samples) == 0 {
		return nil, nil, 0, fmt.Errorf("%s: no campaign completed: %v", d.name, r.failures)
	}
	return inst, plan, setup, nil
}

// verify checks what the daemon persisted for every measured campaign —
// a done record saying completed, a decodable store, and for the
// campaigns the plan marks a store byte-equal to a solo in-process run of
// the same campaign on a same-seed universe — and keeps the good samples
// and their interface counts. A refused or lost campaign fails the run
// even in the warm-up, and so does a tenant that measured fewer
// campaigns than its script holds: either way the region ran under less
// load than the one its numbers would be compared with.
func (inst *instance) verify(samples []sample, plan *tenantPlan, stateDir string, r *result) error {
	type reference struct {
		blob   []byte
		ifaces int
	}
	solo := make(map[uint64]reference) // by campaign key
	blob := func(s sample, kind string) ([]byte, error) {
		return os.ReadFile(filepath.Join(stateDir, s.fr.file[kind]))
	}
	completed := make([]int, plan.script.tenants)
	sums := make(map[[2]int][32]byte) // (tenant, index) → SHA-256 of the persisted store
	for _, s := range samples {
		if s.err != nil {
			r.attempted++
			r.fail("%v", s.err)
			continue
		}
		if !s.measured {
			continue
		}
		r.attempted++
		completed[s.tenant]++
		inst.samples = append(inst.samples, s)
		var rec struct{ State string }
		if b, err := blob(s, "done"); err != nil || json.Unmarshal(b, &rec) != nil || rec.State != "completed" {
			r.fail("%s: terminal state %q (%v)", s.key, rec.State, err)
			continue
		}
		persisted, err := blob(s, "store")
		if err != nil {
			r.fail("%s: %v", s.key, err)
			continue
		}
		sums[[2]int{s.tenant, s.index}] = sha256.Sum256(persisted)
		ifaces := -1
		if plan.check(s.index) {
			c := plan.input(s.tenant, s.index)
			want, ok := solo[c.key]
			if !ok {
				c.shards = 1 // any shard count yields the same store; one is the cheapest
				op, err := runOp(plan.in, c)
				if err != nil {
					return fmt.Errorf("solo reference for %s: %w", s.key, err)
				}
				want = reference{op.res.Store().AppendBinary(nil), op.ifaces}
				solo[c.key] = want
			}
			if bytes.Equal(persisted, want.blob) {
				ifaces = want.ifaces
			} else {
				r.fail("%s: persisted store differs from the solo in-process run", s.key)
			}
		}
		if ifaces < 0 {
			st, err := probe.DecodeStore(persisted)
			if err != nil {
				r.fail("%s: persisted store: %v", s.key, err)
				continue
			}
			ifaces = st.NumInterfaces()
		}
		inst.ifaces += int64(ifaces)
	}
	for t, n := range completed {
		if n < plan.script.count {
			r.attempted++
			r.fail("tenant t%d completed %d of its %d measured campaigns", t, n, plan.script.count)
		}
	}
	// The clients finish in host-time order; the digest follows the script.
	h := sha256.New()
	for t := 0; t < plan.script.tenants; t++ {
		for i := plan.script.warm; i < plan.script.warm+plan.script.count; i++ {
			sum := sums[[2]int{t, i}]
			h.Write(sum[:])
		}
	}
	h.Sum(inst.digest[:0])
	return nil
}

// latencies returns the submit → durable-done times in milliseconds.
func (in *instance) latencies() []float64 {
	ms := make([]float64, len(in.samples))
	for i, s := range in.samples {
		ms[i] = float64(s.fr.at["done"].Sub(s.submit)) / 1e6
	}
	return ms
}

// runDaemon measures a daemon workload end to end, tracing off. Every
// set-up is timed; the last d.instances of them are measured, each for
// its share of the window, and a metric is the median across instances.
func runDaemon(ctx context.Context, d daemonDef, p params, seed int64, seconds float64, e env) (*result, error) {
	r := &result{metrics: make(map[string]float64)}
	per := make(map[string][]float64)
	digest := sha256.New() // over the instances' digests
	var setups []float64
	total := max(d.instances, setupReps)
	for i := 0; i < total; i++ {
		share := 0.0
		if i >= total-d.instances {
			share = seconds / float64(d.instances)
		}
		inst, plan, setup, err := runInstance(ctx, d, p, seed, e, share, r)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup.Seconds())
		if inst == nil {
			continue
		}
		digest.Write(inst.digest[:])
		n := float64(len(inst.samples))
		probes := n * float64(plan.script.probes)
		lat := inst.latencies()
		r.samples += len(lat)
		for name, v := range map[string]float64{
			"probes_per_s":          probes / inst.wall.Seconds(),
			"allocs_per_probe":      inst.delta.mallocs / probes,
			"alloc_bytes_per_probe": inst.delta.totalAlloc / probes,
			"cpu_ns_per_probe":      inst.delta.cpuSeconds * 1e9 / probes,
			"interfaces_per_kprobe": float64(inst.ifaces) / probes * 1000,
			"campaigns_per_s":       n / inst.wall.Seconds(),
			"submit_to_done_ms_p50": median(lat),
		} {
			per[name] = append(per[name], v)
		}
	}
	r.digest = hex.EncodeToString(digest.Sum(nil))
	r.metrics["setup_s"] = median(setups)
	for name, vs := range per {
		r.metrics[name] = median(vs)
	}
	return r, nil
}

// Names of the per-layer metrics only a daemon run can produce; an
// in-process workload reports 0 for each.
var daemonLayerMetrics = []string{
	"sched.checkpoints_per_campaign", "store.fsyncs_per_campaign", "store.bytes_per_campaign",
	"beholderd.submit_http_ms_p50", "beholderd.submit_to_spec_ms_p50", "beholderd.spec_to_store_ms_p50",
	"beholderd.store_to_done_ms_p50", "beholderd.submit_to_done_ms_p95", "beholderd.peak_rss_mb",
}

// traceDaemon is the traced run of a daemon workload: a shorter drive of
// one instance with client-side spans (the manifest-frame instants as
// span boundaries), then the in-process layer pass over the same
// campaigns.
func traceDaemon(ctx context.Context, d daemonDef, p params, seed int64, seconds float64, e env) (*result, error) {
	r := &result{metrics: make(map[string]float64)}
	inst, plan, _, err := runInstance(ctx, d, p, seed, e, 0.4*seconds, r)
	if err != nil {
		return nil, err
	}
	n := float64(len(inst.samples))
	m := r.metrics
	m["sched.checkpoints_per_campaign"] = inst.delta.checkpoints / n
	m["store.fsyncs_per_campaign"] = inst.delta.fsyncs / n
	m["store.bytes_per_campaign"] = inst.delta.bytesWritten / n
	m["beholderd.peak_rss_mb"] = inst.rssMB

	var first time.Time
	for _, s := range inst.samples {
		if first.IsZero() || s.submit.Before(first) {
			first = s.submit
		}
	}
	tr := &tracer{t0: first}
	var httpMS, admit, run, persist []float64
	gap := func(a, b time.Time) float64 { return float64(b.Sub(a)) / 1e6 }
	for i, s := range inst.samples {
		at := s.fr.at
		root := tr.add("campaign", 0, i+1, s.submit, at["done"])
		tr.add("submit_http", root, i+1, s.submit, s.replied)
		tr.add("wait_done", root, i+1, s.replied, at["done"])
		tr.add("admit", root, i+1, s.submit, at["spec"])
		tr.add("run_fold", root, i+1, at["spec"], at["store"])
		tr.add("persist", root, i+1, at["store"], at["done"])
		httpMS = append(httpMS, gap(s.submit, s.replied))
		admit = append(admit, gap(s.submit, at["spec"]))
		run = append(run, gap(at["spec"], at["store"]))
		persist = append(persist, gap(at["store"], at["done"]))
	}
	m["beholderd.submit_http_ms_p50"] = median(httpMS)
	m["beholderd.submit_to_spec_ms_p50"] = median(admit)
	m["beholderd.spec_to_store_ms_p50"] = median(run)
	m["beholderd.store_to_done_ms_p50"] = median(persist)
	m["beholderd.submit_to_done_ms_p95"] = percentile(inst.latencies(), 95)
	r.samples = len(inst.samples)

	lm, ltr, err := runLayers(ctx, plan.in, plan.layers, p, e.tmp, r)
	if err != nil {
		return nil, err
	}
	for name, v := range lm {
		m[name] = v
	}
	if e.traceDir != "" {
		if err := tr.writeFile(filepath.Join(e.traceDir, "trace-"+d.name+".json")); err != nil {
			return nil, err
		}
		if err := ltr.writeFile(filepath.Join(e.traceDir, "trace-"+d.name+"-layers.json")); err != nil {
			return nil, err
		}
	}
	return r, nil
}
