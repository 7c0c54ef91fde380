package main

import (
	"encoding/json"
	"fmt"
	"regexp"
)

// metricDef is one catalogued metric. Bound is the share of the parent
// commit's median by which an end-to-end metric may worsen before a
// change is a regression; per-layer metrics carry none. Layer names the
// module measured and Moves the end-to-end metric (and workload) the
// number is expected to move — written down before measuring, so a
// later change can be judged against the prediction.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	Layer  string  `json:"layer,omitempty"`
	Moves  string  `json:"should_move,omitempty"`
}

// endToEnd is what a user of the stack sees. Every workload reports
// every one: an in-process workload's "campaign" is one RunYarrp6 call
// and its submit→done time is the call's wall time.
//
// The driver's schema has one bound per metric for all four workloads,
// so the noisiest workload sets it: each bound is twice the widest
// inter-quartile spread that metric showed on any workload in any
// ten-seed pass on the host that sized the benchmark (README, "Bounds and
// the noise floor", lists the passes), rounded up to the next 0.05 and
// capped at the schema's 0.25; the yield, a virtual-clock count that
// moves only with the seed, gets three times its widest seed-to-seed
// spread. Every host-time metric ends at
// the cap: in its noisy phases the shared host spreads identical
// daemon-checkpointed runs by 14–18 %, and a bound under the spread
// makes identical code fail its own A/A comparison. The counts are where
// the benchmark resolves finely.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "probes_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_ns_per_probe", Unit: "ns", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_probe", Unit: "allocs/probe", Better: "lower", Bound: 0.15},
	{Name: "alloc_bytes_per_probe", Unit: "B/probe", Better: "lower", Bound: 0.15},
	{Name: "interfaces_per_kprobe", Unit: "1/kprobe", Better: "higher", Bound: 0.015},
	{Name: "campaigns_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "submit_to_done_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
}

// perLayer is the outside-in budget: host-time costs of calls into each
// layer's public functions on the workload's own inputs. A layer the
// workload never enters reports 0 — that is what makes it the bypass
// workload for that layer.
var perLayer = []metricDef{
	{Name: "perm.next_batch_ns_per_probe", Unit: "ns", Better: "lower", Layer: "perm", Moves: "probes_per_s on wide-serial"},
	{Name: "codec.build_ns_per_probe", Unit: "ns", Better: "lower", Layer: "probe", Moves: "probes_per_s on wide-serial (template misses); little on sharded-saturated (hits)"},
	{Name: "codec.build_allocs_per_probe", Unit: "allocs/probe", Better: "lower", Layer: "probe", Moves: "allocs_per_probe on wide-serial"},
	{Name: "codec.parse_ns_per_reply", Unit: "ns", Better: "lower", Layer: "probe", Moves: "probes_per_s on both in-process workloads"},
	{Name: "netsim.send_ns_per_probe", Unit: "ns", Better: "lower", Layer: "netsim", Moves: "probes_per_s on wide-serial"},
	{Name: "netsim.recv_ns_per_reply", Unit: "ns", Better: "lower", Layer: "netsim", Moves: "probes_per_s on wide-serial"},
	{Name: "netsim.plan_hit_share", Unit: "share", Better: "higher", Layer: "netsim", Moves: "explains netsim.send_ns_per_probe"},
	{Name: "netsim.shared_plan_hit_share", Unit: "share", Better: "higher", Layer: "netsim", Moves: "explains netsim.send_ns_per_probe on sharded runs"},
	{Name: "netsim.rate_limit_dropped_share", Unit: "share", Better: "lower", Layer: "netsim", Moves: "virtual-time count; must not move under a perf change"},
	{Name: "netsim.prime_ns_per_replayed_probe", Unit: "ns", Better: "lower", Layer: "netsim", Moves: "probes_per_s on sharded-saturated"},
	{Name: "netsim.prime_share", Unit: "share", Better: "lower", Layer: "netsim", Moves: "probes_per_s on sharded-saturated (Amdahl serial section)"},
	{Name: "probe.store.add_ns_per_reply", Unit: "ns", Better: "lower", Layer: "probe", Moves: "probes_per_s, alloc_bytes_per_probe on both in-process workloads"},
	{Name: "probe.store.novel_share", Unit: "share", Better: "higher", Layer: "probe", Moves: "explains probe.store.add_ns_per_reply"},
	{Name: "probe.store.merge_ms", Unit: "ms", Better: "lower", Layer: "probe", Moves: "probes_per_s on sharded-saturated"},
	{Name: "probe.store.encode_ms", Unit: "ms", Better: "lower", Layer: "probe", Moves: "submit_to_done_ms_p50 on daemon-burst"},
	{Name: "probe.store.bytes", Unit: "B", Better: "lower", Layer: "probe", Moves: "store.put_large_ms_p50"},
	{Name: "graph.on_reply_ns_per_reply", Unit: "ns", Better: "lower", Layer: "graph", Moves: "probes_per_s on sharded-saturated and the daemon workloads"},
	{Name: "graph.union_ms", Unit: "ms", Better: "lower", Layer: "graph", Moves: "probes_per_s on sharded-saturated"},
	{Name: "graph.from_store_ms", Unit: "ms", Better: "lower", Layer: "graph", Moves: "submit_to_done_ms_p50 on daemon-burst (terminal graph)"},
	{Name: "core.campaign.shard_overhead_ratio", Unit: "ratio", Better: "lower", Layer: "core", Moves: "probes_per_s on sharded-saturated"},
	{Name: "core.campaign.shard_efficiency", Unit: "ratio", Better: "higher", Layer: "core", Moves: "probes_per_s on sharded-saturated"},
	{Name: "core.campaign.engine_vs_direct_ratio", Unit: "ratio", Better: "lower", Layer: "core", Moves: "probes_per_s on wide-serial (ROADMAP item e)"},
	{Name: "core.checkpoint.encode_ms", Unit: "ms", Better: "lower", Layer: "core", Moves: "probes_per_s, submit_to_done_ms_p50 on daemon-checkpointed"},
	{Name: "core.checkpoint.bytes", Unit: "B", Better: "lower", Layer: "core", Moves: "store.put_large_ms_p50 on daemon-checkpointed"},
	{Name: "core.checkpoint.resume_ms", Unit: "ms", Better: "lower", Layer: "core", Moves: "daemon restart time; not on the steady-state path (Rewind skips it)"},
	{Name: "sched.supervised_overhead_ratio", Unit: "ratio", Better: "lower", Layer: "sched", Moves: "campaigns_per_s on daemon-burst"},
	{Name: "sched.checkpoints_per_campaign", Unit: "count", Better: "lower", Layer: "sched", Moves: "probes_per_s on daemon-checkpointed"},
	{Name: "store.put_small_ms_p50", Unit: "ms", Better: "lower", Layer: "store", Moves: "submit_to_done_ms_p50 on daemon-burst"},
	{Name: "store.put_large_ms_p50", Unit: "ms", Better: "lower", Layer: "store", Moves: "probes_per_s on daemon-checkpointed"},
	{Name: "store.put_mb_per_s", Unit: "MB/s", Better: "higher", Layer: "store", Moves: "probes_per_s on daemon-checkpointed"},
	{Name: "store.fsyncs_per_campaign", Unit: "count", Better: "lower", Layer: "store", Moves: "submit_to_done_ms_p50 on daemon-burst"},
	{Name: "store.bytes_per_campaign", Unit: "B", Better: "lower", Layer: "store", Moves: "probes_per_s on daemon-checkpointed"},
	{Name: "beholderd.submit_http_ms_p50", Unit: "ms", Better: "lower", Layer: "beholderd", Moves: "submit_to_done_ms_p50 on daemon-burst"},
	{Name: "beholderd.submit_to_spec_ms_p50", Unit: "ms", Better: "lower", Layer: "beholderd", Moves: "admit share of submit_to_done_ms_p50"},
	{Name: "beholderd.spec_to_store_ms_p50", Unit: "ms", Better: "lower", Layer: "beholderd", Moves: "queue+run+fold share of submit_to_done_ms_p50"},
	{Name: "beholderd.store_to_done_ms_p50", Unit: "ms", Better: "lower", Layer: "beholderd", Moves: "persist share of submit_to_done_ms_p50"},
	{Name: "beholderd.submit_to_done_ms_p95", Unit: "ms", Better: "lower", Layer: "beholderd", Moves: "tail of submit_to_done on daemon-burst (≈ 570 samples); too few samples elsewhere to gate end to end"},
	{Name: "beholderd.peak_rss_mb", Unit: "MB", Better: "lower", Layer: "beholderd", Moves: "informational"},
	{Name: "layers.sum_ns_per_probe", Unit: "ns", Better: "lower", Layer: "all", Moves: "1e9 / probes_per_s on the in-process workloads"},
	{Name: "layers.unattributed_share", Unit: "share", Better: "lower", Layer: "all", Moves: "must stay within 0.10 on wide-serial"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower", Layer: "bench", Moves: "sanity: within 0.05"},
}

// workloadDef is one catalogued workload; Why is the reason it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{Name: "wide-serial", Why: "1 M-probe serial campaign overflowing the template and plan caches: only the per-probe engine path works; bypasses sharding, checkpoints, scheduler and disk"},
	{Name: "sharded-saturated", Why: "0.68 M-probe 4-shard fill+graph campaign under rate-limit saturation: cache-resident flows, serial prime replay, bucket snapshots, store and graph merges"},
	{Name: "daemon-burst", Why: "beholderd over loopback HTTP, 2 closed-loop tenants of 9 600-probe campaigns: per-campaign fixed cost (JSON, admission, ~10 fsyncs) dominates, the engine does little"},
	{Name: "daemon-checkpointed", Why: "beholderd, 416 k-probe 2-shard campaigns checkpointed every 100 ms: the same sched+store layers as daemon-burst driven by few MB-sized blobs instead of many tiny ones"},
}

// runSeconds is how long one driver run measures.
const runSeconds = 20

// Limits of the output contract, enforced on the tool's own catalogue.
const (
	maxWorkloads = 8
	maxEndToEnd  = 16
	maxPerLayer  = 128
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkCatalogue enforces the naming and count limits on the catalogue.
func checkCatalogue() error {
	if n := len(workloads); n < 2 || n > maxWorkloads {
		return fmt.Errorf("%d workloads (want 2..%d)", n, maxWorkloads)
	}
	if n := len(endToEnd); n < 1 || n > maxEndToEnd {
		return fmt.Errorf("%d end-to-end metrics (want 1..%d)", n, maxEndToEnd)
	}
	if n := len(perLayer); n < 1 || n > maxPerLayer {
		return fmt.Errorf("%d per-layer metrics (want 1..%d)", n, maxPerLayer)
	}
	seen := make(map[string]bool)
	use := func(name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("bad name %q", name)
		}
		if seen[name] {
			return fmt.Errorf("name %q used twice", name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range workloads {
		if err := use(w.Name); err != nil {
			return err
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			return fmt.Errorf("workload %s: why has %d characters (want 1..200)", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for i, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if err := use(m.Name); err != nil {
			return err
		}
		if !unitRE.MatchString(m.Unit) {
			return fmt.Errorf("metric %s: bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			return fmt.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
		if i < len(endToEnd) {
			if m.Bound < 0 || m.Bound > 0.25 {
				return fmt.Errorf("metric %s: bound %v outside [0, 0.25]", m.Name, m.Bound)
			}
			if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
				hasSetup = true
			}
		}
	}
	if !hasSetup {
		return fmt.Errorf("no setup_s metric")
	}
	return nil
}

// manifestJSON renders the catalogue as the root BENCHMARK.json — the
// file the benchmark driver reads. `bench -manifest` prints it, and the
// smoke test fails when the checked-in file has drifted from it.
func manifestJSON() []byte {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []e2e         `json:"end_to_end"`
		PerLayer   []layer       `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // the document is plain strings and numbers
	}
	return append(b, '\n')
}
