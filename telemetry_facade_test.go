package beholder

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"beholder/internal/testutil"
)

// telemetryTargets builds a small deterministic target set for the
// facade telemetry tests.
func telemetryTargets(in *Internet, t *testing.T) []netip.Addr {
	t.Helper()
	targets, err := in.TargetSet("cdn-k32", 64, "lowbyte1", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) == 0 {
		t.Fatal("empty target set")
	}
	return targets
}

// requireGraphGauges holds a Graph: true run to its contract: the graph
// was built before the run returned, so the run's own telemetry snapshot
// carries its node and edge counts.
func requireGraphGauges(t *testing.T, res *Result) {
	t.Helper()
	nodes, okN := res.Telemetry.Gauge("graph_nodes")
	edges, okE := res.Telemetry.Gauge("graph_edges")
	g := res.Graph()
	if !okN || !okE || nodes != int64(g.NumNodes()) || edges != int64(g.NumEdges()) || edges == 0 {
		t.Errorf("graph_nodes/graph_edges = %d/%d (published %v/%v), graph has %d/%d",
			nodes, edges, okN, okE, g.NumNodes(), g.NumEdges())
	}
}

// runProgress executes one campaign under the golden configuration and
// returns the NDJSON progress stream it produced. The rate sits below
// the simulated routers' ICMPv6 rate-limit saturation point, where the
// stream was first recorded; shard clones open on primed token buckets,
// so it would shard byte-identically past that point too (fill mode
// aside, see core's package comment).
func runProgress(t *testing.T, shards, batch int) []byte {
	t.Helper()
	in := NewSmallInternet(2018)
	v := in.NewVantage("PROG-1")
	targets := telemetryTargets(in, t)
	if len(targets) > 61 {
		targets = targets[:61]
	}
	var buf bytes.Buffer
	_, err := v.RunYarrp6(targets, YarrpOptions{
		Rate: 500, MaxTTL: 12, Key: 0x6b657921,
		Shards: shards, Batch: batch, Progress: &buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestProgressGolden pins the NDJSON progress stream schema and
// content against a golden master, and proves the stream is
// byte-identical across shard counts and batch sizes — the same
// determinism contract the store already carries.
func TestProgressGolden(t *testing.T) {
	ref := runProgress(t, 1, 0)
	const golden = "testdata/progress.golden"
	if *update {
		if err := os.WriteFile(golden, ref, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(ref, want) {
		t.Fatalf("progress stream deviates from %s\ngot:\n%s\nwant:\n%s", golden, ref, want)
	}
	for _, cfg := range []struct{ shards, batch int }{{2, 0}, {4, 7}, {1, 1}} {
		got := runProgress(t, cfg.shards, cfg.batch)
		if !bytes.Equal(got, ref) {
			t.Fatalf("progress stream differs at shards=%d batch=%d\ngot:\n%s\nwant:\n%s",
				cfg.shards, cfg.batch, got, ref)
		}
	}
}

// TestRunYarrp6Telemetry checks that a telemetry-enabled campaign fills
// the registry consistently with the campaign's own counters.
func TestRunYarrp6Telemetry(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	in := NewSmallInternet(2018)
	v := in.NewVantage("TEL-1")
	reg := NewTelemetry()
	res, err := v.RunYarrp6(telemetryTargets(in, t), YarrpOptions{
		Rate: 8000, MaxTTL: 16, Shards: 2, Graph: true, Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := res.Telemetry
	counter := func(name string) int64 {
		t.Helper()
		n, ok := snap.Counter(name)
		if !ok {
			t.Fatalf("counter %s missing from snapshot", name)
		}
		return n
	}
	gauge := func(name string) int64 {
		t.Helper()
		n, ok := snap.Gauge(name)
		if !ok {
			t.Fatalf("gauge %s missing from snapshot", name)
		}
		return n
	}
	if got := counter("yarrp_probes_sent_total"); got != res.ProbesSent {
		t.Errorf("yarrp_probes_sent_total = %d, want %d", got, res.ProbesSent)
	}
	if got := counter("yarrp_replies_total"); got != res.Replies {
		t.Errorf("yarrp_replies_total = %d, want %d", got, res.Replies)
	}
	if got := counter("plan_cache_hits_total"); got != res.PlanHits {
		t.Errorf("plan_cache_hits_total = %d, want %d", got, res.PlanHits)
	}
	if routed := counter("sim_packets_routed_total"); routed == 0 || res.PlanHits+res.PlanMisses != routed {
		t.Errorf("sim_packets_routed_total = %d, plan table hits + misses = %d", routed, res.PlanHits+res.PlanMisses)
	}
	if slots, cores := gauge("plan_table_slots"), gauge("plan_table_cores"); slots != int64(res.PlanTableSlots) ||
		cores != int64(res.PlanTableCores) || cores == 0 || cores > slots {
		t.Errorf("plan_table_slots/cores = %d/%d, result has %d/%d", slots, cores, res.PlanTableSlots, res.PlanTableCores)
	}
	if got := gauge("plan_table_routers"); got != int64(res.PlanTableRouters) || got == 0 {
		t.Errorf("plan_table_routers = %d, result has %d", got, res.PlanTableRouters)
	}
	if got := counter("plan_table_growths_total"); got != res.PlanTableGrowths {
		t.Errorf("plan_table_growths_total = %d, want %d", got, res.PlanTableGrowths)
	}
	if slots, addrs := gauge("addr_table_slots"), gauge("addr_table_addrs"); slots != int64(res.AddrTableSlots) ||
		addrs != int64(res.AddrTableAddrs) || addrs < gauge("store_unique_interfaces") || addrs < gauge("store_traces") || slots < addrs {
		t.Errorf("addr_table_slots/addrs = %d/%d (result %d/%d) for %d interfaces and %d traces", slots, addrs,
			res.AddrTableSlots, res.AddrTableAddrs, gauge("store_unique_interfaces"), gauge("store_traces"))
	}
	if got := gauge("store_unique_interfaces"); got != int64(res.NumInterfaces()) {
		t.Errorf("store_unique_interfaces = %d, want %d", got, res.NumInterfaces())
	}
	requireGraphGauges(t, res)
	if _, ok := snap.Histogram("yarrp_rtt_usec"); !ok {
		t.Error("yarrp_rtt_usec histogram missing")
	}
	if len(res.Progress) == 0 {
		t.Fatal("telemetry-enabled run returned no progress series")
	}
	last := res.Progress[len(res.Progress)-1]
	if last.Probes != res.ProbesSent {
		t.Errorf("final progress point has %d probes, want %d", last.Probes, res.ProbesSent)
	}
	if last.At != res.Elapsed {
		t.Errorf("final progress point at %s, want %s", last.At, res.Elapsed)
	}

	// An adaptive run honours Graph the same way.
	ares, err := in.NewVantage("TEL-2").RunYarrp6(telemetryTargets(in, t), YarrpOptions{
		Rate: 8000, MaxTTL: 16, Shards: 2, Graph: true, Telemetry: NewTelemetry(),
		Adaptive: &AdaptiveOptions{EpochTargets: 32, MaxEpochs: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ares.Epochs) == 0 {
		t.Fatal("adaptive run reports no epochs")
	}
	requireGraphGauges(t, ares)

	// A faulted run publishes exactly these simulator and prober
	// counters, the retries it sent again among them.
	fin := NewSmallInternet(2018)
	fin.SetFaults(&FaultConfig{Seed: 7, Rules: []FaultRule{
		{Vantage: "TEL-3", Shard: FaultAnyShard, Kind: FaultTransientSend, Prob: 0.05},
		{Vantage: "TEL-3", Shard: FaultAnyShard, Kind: FaultCorruptReply, Prob: 0.2},
	}})
	fres, err := fin.NewVantage("TEL-3").RunYarrp6(telemetryTargets(fin, t), YarrpOptions{
		Rate: 8000, MaxTTL: 16, Shards: 2, Fill: true, Telemetry: NewTelemetry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, c := range fres.Telemetry.Counters {
		if strings.HasPrefix(c.Name, "sim_") || strings.HasPrefix(c.Name, "yarrp_") {
			names = append(names, c.Name)
		}
	}
	want := []string{
		"sim_echo_replies_sent_total", "sim_errors_sent_total", "sim_fault_corrupted_total",
		"sim_fault_crash_denials_total", "sim_fault_delayed_total", "sim_fault_stall_drops_total",
		"sim_fault_transient_errs_total", "sim_fault_truncated_total", "sim_filtered_drops_total",
		"sim_loss_dropped_total", "sim_nd_silent_drops_total", "sim_packets_routed_total", "sim_port_unreach_sent_total",
		"sim_rate_limit_dropped_total", "sim_tcp_rsts_sent_total", "sim_time_exceeded_sent_total",
		"sim_unresponsive_drops_total",
		"yarrp_batch_early_stops_total", "yarrp_drain_fastforwards_total", "yarrp_fill_probes_total",
		"yarrp_probes_sent_total", "yarrp_replies_dest_unreach_total", "yarrp_replies_echo_total",
		"yarrp_replies_not_mine_total", "yarrp_replies_tcp_rst_total", "yarrp_replies_time_exceeded_total",
		"yarrp_replies_total", "yarrp_retries_total", "yarrp_skipped_total",
	}
	if got := strings.Join(names, " "); got != strings.Join(want, " ") {
		t.Errorf("faulted run published counters\n%s\nwant\n%s", got, strings.Join(want, " "))
	}
	var retries int64
	for _, s := range fres.ShardStats {
		retries += s.Retries
	}
	if n, _ := fres.Telemetry.Counter("yarrp_retries_total"); retries == 0 || n != retries {
		t.Errorf("yarrp_retries_total = %d, shards retried %d", n, retries)
	}
}

// TestTelemetryEquivalence proves that switching telemetry and progress
// on does not perturb the campaign: same store contents, same counters.
func TestTelemetryEquivalence(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	run := func(instrument bool) (*Result, string) {
		in := NewSmallInternet(2018)
		v := in.NewVantage("EQ-1")
		opt := YarrpOptions{Rate: 8000, MaxTTL: 16, Shards: 2}
		if instrument {
			opt.Telemetry = NewTelemetry()
			opt.Progress = io.Discard
		}
		res, err := v.RunYarrp6(telemetryTargets(in, t), opt)
		if err != nil {
			t.Fatal(err)
		}
		ifaces := res.Interfaces()
		// Store insertion order may differ (progress sampling shifts
		// drain boundaries); the discovered set must not.
		sort.Slice(ifaces, func(i, j int) bool { return ifaces[i].Less(ifaces[j]) })
		var sb strings.Builder
		for _, a := range ifaces {
			fmt.Fprintln(&sb, a)
		}
		return res, sb.String()
	}
	plain, plainIfaces := run(false)
	instr, instrIfaces := run(true)
	if plain.ProbesSent != instr.ProbesSent || plain.Replies != instr.Replies ||
		plain.Elapsed != instr.Elapsed {
		t.Errorf("counters diverge with telemetry on: %+v vs %+v",
			plain.ProbesSent, instr.ProbesSent)
	}
	if plainIfaces != instrIfaces {
		t.Error("interface sets diverge with telemetry on")
	}
}

// TestBaselineTelemetry checks the trace_* and apd_* flows reach a
// facade registry.
func TestBaselineTelemetry(t *testing.T) {
	in := NewSmallInternet(2018)
	v := in.NewVantage("BASE-1")
	targets := telemetryTargets(in, t)
	if len(targets) > 40 {
		targets = targets[:40]
	}
	reg := NewTelemetry()
	seq := v.RunSequential(targets, SequentialOptions{Rate: 4000, MaxTTL: 16, Telemetry: reg})
	if n, _ := reg.Snapshot().Counter("trace_probes_sent_total"); n != seq.ProbesSent {
		t.Errorf("trace_probes_sent_total = %d, want %d", n, seq.ProbesSent)
	}
	aliases := v.DetectAliases(AliasCandidates(targets), AliasOptions{Telemetry: reg})
	if n, _ := reg.Snapshot().Counter("apd_probes_sent_total"); n != aliases.ProbesSent() {
		t.Errorf("apd_probes_sent_total = %d, want %d", n, aliases.ProbesSent())
	}
}

// TestServeTelemetry exercises the HTTP observability endpoint through
// the facade.
func TestServeTelemetry(t *testing.T) {
	reg := NewTelemetry()
	reg.Counter("yarrp_probes_sent_total").Add(7)
	addr, err := ServeTelemetry("127.0.0.1:0", reg)
	if err != nil {
		t.Skipf("cannot listen: %v", err)
	}
	cl := &http.Client{Timeout: 5 * time.Second}
	resp, err := cl.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "yarrp_probes_sent_total 7") {
		t.Errorf("metrics output missing counter:\n%s", body)
	}
}
