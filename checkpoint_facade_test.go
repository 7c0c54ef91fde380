package beholder

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"beholder/internal/testutil"
)

// TestFacadeCheckpointResume drives the interrupt → checkpoint → resume
// workflow through the public API, static and adaptive: a campaign
// interrupted mid-flight and resumed on a replayed Internet must
// reproduce the uninterrupted run byte for byte. The resume passes no
// probing or adaptive options — the artifact alone carries the
// campaign, an adaptive one's generator (seeds, alias threshold)
// included.
func TestFacadeCheckpointResume(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	for _, tc := range []struct {
		name string
		opt  YarrpOptions
		// cuts places the interrupts against the uninterrupted run.
		cuts func(ref *Result) []time.Duration
	}{
		{"static", YarrpOptions{Rate: 2000, MaxTTL: 12, Key: 1, Fill: true, Shards: 2},
			func(*Result) []time.Duration { return []time.Duration{400 * time.Millisecond} }},
		{"adaptive", YarrpOptions{Rate: 2000, MaxTTL: 12, Key: 1, Fill: true, Shards: 2,
			Adaptive: &AdaptiveOptions{EpochTargets: 16, MaxEpochs: 4}},
			// Inside epoch 0's window and inside a later epoch's.
			func(ref *Result) []time.Duration {
				if len(ref.Epochs) < 3 {
					t.Fatalf("adaptive reference ran %d epochs", len(ref.Epochs))
				}
				e0, e2 := ref.Epochs[0], ref.Epochs[2]
				return []time.Duration{e0.Base + e0.Stats.Elapsed/2, e2.Base + e2.Stats.Elapsed/2}
			}},
	} {
		run := func(interruptAt time.Duration) (*Result, *Vantage) {
			in := NewSmallInternet(3)
			v := in.NewVantage("ckpt-test")
			targets, err := in.TargetSet("caida", 64, "lowbyte1", 0.2)
			if err != nil {
				t.Fatal(err)
			}
			opt := tc.opt
			opt.InterruptAt = interruptAt
			res, err := v.RunYarrp6(targets, opt)
			if interruptAt == 0 && err != nil {
				t.Fatal(err)
			}
			if interruptAt > 0 {
				if !errors.Is(err, ErrInterrupted) {
					t.Fatalf("%s: interrupt at %v: got %v, want ErrInterrupted", tc.name, interruptAt, err)
				}
				if len(res.Checkpoint) == 0 {
					t.Fatalf("%s: interrupted result carries no checkpoint", tc.name)
				}
			}
			return res, v
		}

		ref, _ := run(0)
		for _, at := range tc.cuts(ref) {
			label := fmt.Sprintf("%s cut at %v", tc.name, at)
			partial, v := run(at)
			if partial.ProbesSent >= ref.ProbesSent {
				t.Fatalf("%s: interrupted run sent %d probes, full run %d", label, partial.ProbesSent, ref.ProbesSent)
			}
			res, err := v.ResumeYarrp6(partial.Checkpoint, YarrpOptions{Graph: true, Telemetry: NewTelemetry()})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			requireGraphGauges(t, res)
			if res.ProbesSent != ref.ProbesSent || res.Fills != ref.Fills || res.Replies != ref.Replies {
				t.Fatalf("%s: resumed counters %d/%d/%d differ from uninterrupted %d/%d/%d", label,
					res.ProbesSent, res.Fills, res.Replies, ref.ProbesSent, ref.Fills, ref.Replies)
			}
			if !res.Store().Equal(ref.Store()) {
				t.Fatalf("%s: resumed store differs from uninterrupted store", label)
			}
			if !res.Graph().Equal(ref.Graph()) {
				t.Fatalf("%s: resumed graph differs from uninterrupted graph", label)
			}
			if !reflect.DeepEqual(res.Progress, ref.Progress) || !reflect.DeepEqual(res.Epochs, ref.Epochs) {
				t.Fatalf("%s: resumed progress or epochs differ from uninterrupted run's", label)
			}
			if len(res.Checkpoint) != 0 {
				t.Fatalf("%s: completed resume still carries a checkpoint", label)
			}
		}
	}
}

// TestFacadeFaultedCampaign exercises the fault plane through the
// public API: a crash rule quarantines the afflicted shard, recovery
// re-probes its range, and with lossless replies the result equals the
// fault-free campaign's.
func TestFacadeFaultedCampaign(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	run := func(fc *FaultConfig) (*Result, *TelemetryRegistry) {
		in := NewSmallInternet(3)
		in.SetFaults(fc)
		v := in.NewVantage("fault-test")
		targets, err := in.TargetSet("caida", 64, "lowbyte1", 0.2)
		if err != nil {
			t.Fatal(err)
		}
		reg := NewTelemetry()
		res, err := v.RunYarrp6(targets, YarrpOptions{
			Rate: 2000, MaxTTL: 12, Key: 1, Fill: true, Shards: 2, Graph: true, Telemetry: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, reg
	}

	clean, _ := run(nil)
	faulted, reg := run(&FaultConfig{Seed: 5, Rules: []FaultRule{
		{Vantage: "fault-test", Shard: 1, Kind: FaultCrash, At: 200 * time.Millisecond},
	}})
	if len(faulted.Quarantined) != 1 || faulted.Quarantined[0] != 1 {
		t.Fatalf("quarantined = %v, want [1]", faulted.Quarantined)
	}
	if len(faulted.Incomplete) != 0 {
		t.Fatalf("incomplete ranges: %v", faulted.Incomplete)
	}
	if !faulted.Store().Equal(clean.Store()) {
		t.Fatal("crash-recovered store differs from fault-free store")
	}
	requireProgressTotals(t, faulted)
	// The graph is a function of the store: what the recovery probers
	// collected is in it.
	var cg, fg bytes.Buffer
	if err := clean.Graph().WriteNDJSON(&cg, nil); err != nil {
		t.Fatal(err)
	}
	if err := faulted.Graph().WriteNDJSON(&fg, nil); err != nil {
		t.Fatal(err)
	}
	if !faulted.Graph().Equal(clean.Graph()) || !bytes.Equal(fg.Bytes(), cg.Bytes()) {
		t.Fatalf("crash-recovered graph (%d nodes, %d edges) differs from fault-free graph (%d nodes, %d edges)",
			faulted.Graph().NumNodes(), faulted.Graph().NumEdges(), clean.Graph().NumNodes(), clean.Graph().NumEdges())
	}
	snap := reg.Snapshot()
	if n, ok := snap.Counter("sim_fault_crash_denials_total"); !ok || n == 0 {
		t.Fatal("sim_fault_crash_denials_total not published")
	}
}

// TestFacadeFaultedSingleShard is TestFacadeFaultedCampaign at one shard:
// the lone shard probes on the vantage's own connection, and when that
// connection dies its recovery probers re-probe the remainder on clones,
// so the run ends as if nothing had happened — the fault-free store, the
// fault-free vantage clock, and a progress series that lands on the
// run's totals.
func TestFacadeFaultedSingleShard(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	run := func(fc *FaultConfig) (*Result, *Vantage) {
		in := NewSmallInternet(3)
		in.SetFaults(fc)
		v := in.NewVantage("fault-test")
		targets, err := in.TargetSet("caida", 64, "lowbyte1", 0.2)
		if err != nil {
			t.Fatal(err)
		}
		res, err := v.RunYarrp6(targets, YarrpOptions{Rate: 2000, MaxTTL: 12, Key: 1, Fill: true})
		if err != nil {
			t.Fatal(err)
		}
		return res, v
	}

	clean, cv := run(nil)
	faulted, fv := run(&FaultConfig{Seed: 5, Rules: []FaultRule{
		{Vantage: "fault-test", Shard: 0, Kind: FaultCrash, At: 200 * time.Millisecond},
	}})
	if len(faulted.Quarantined) != 1 || faulted.Quarantined[0] != 0 {
		t.Fatalf("quarantined = %v, want [0]", faulted.Quarantined)
	}
	if len(faulted.Incomplete) != 0 {
		t.Fatalf("incomplete ranges: %v", faulted.Incomplete)
	}
	if !faulted.Store().Equal(clean.Store()) {
		t.Fatal("crash-recovered store differs from fault-free store")
	}
	if fv.clk != cv.clk || fv.v.Now() != cv.v.Now() {
		t.Fatalf("vantage clock %v/%v after recovery, fault-free %v/%v", fv.clk, fv.v.Now(), cv.clk, cv.v.Now())
	}
	requireProgressTotals(t, faulted)
}

// TestFacadeCampaignsProbeOnClones: a facade campaign — one shard or
// several, fresh or interrupted and resumed — probes on clones of the
// vantage only, so the vantage's own connection counters do not move,
// and whatever runs on the vantage afterwards sees it as the shard count
// left it: a follow-up sequential run's store is the same after a 1- and
// a 3-shard campaign.
func TestFacadeCampaignsProbeOnClones(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	opt := YarrpOptions{Rate: 2000, MaxTTL: 12, Key: 1, Fill: true}
	untouched := func(label string, v *Vantage, call func() (*Result, error)) *Result {
		t.Helper()
		before := v.v.Stats
		res, err := call()
		if err != nil && !errors.Is(err, ErrInterrupted) {
			t.Fatalf("%s: %v", label, err)
		}
		if after := v.v.Stats; after != before {
			t.Fatalf("%s: vantage stats moved %+v -> %+v", label, before, after)
		}
		return res
	}
	var follow [][]byte
	for _, shards := range []int{1, 3} {
		opt.Shards = shards
		in := NewSmallInternet(3)
		v := in.NewVantage("clone-test")
		targets, err := in.TargetSet("caida", 64, "lowbyte1", 0.2)
		if err != nil {
			t.Fatal(err)
		}
		untouched(fmt.Sprintf("%d shards fresh", shards), v, func() (*Result, error) { return v.RunYarrp6(targets, opt) })
		seq := v.RunSequential(targets, SequentialOptions{Rate: 2000, MaxTTL: 12, Window: 32})
		follow = append(follow, seq.Store().AppendBinary(nil))

		cut := opt
		cut.InterruptAt = 400 * time.Millisecond
		in = NewSmallInternet(3)
		v = in.NewVantage("clone-test")
		partial := untouched(fmt.Sprintf("%d shards interrupted", shards), v, func() (*Result, error) { return v.RunYarrp6(targets, cut) })
		if len(partial.Checkpoint) == 0 {
			t.Fatalf("%d shards: interrupted run carries no checkpoint", shards)
		}
		untouched(fmt.Sprintf("%d shards resumed", shards), v, func() (*Result, error) { return v.ResumeYarrp6(partial.Checkpoint, YarrpOptions{}) })
	}
	if !bytes.Equal(follow[0], follow[1]) {
		t.Fatal("sequential run after a 1-shard campaign differs from the one after a 3-shard campaign")
	}
}

// requireProgressTotals requires a run's progress series to end on its
// totals: the probes sent and the interfaces in its merged store.
func requireProgressTotals(t *testing.T, res *Result) {
	t.Helper()
	if len(res.Progress) == 0 {
		t.Fatal("run has no progress series")
	}
	if last := res.Progress[len(res.Progress)-1]; last.Probes != res.ProbesSent || last.Interfaces != res.NumInterfaces() {
		t.Fatalf("last progress point (%d probes, %d interfaces), run (%d, %d)",
			last.Probes, last.Interfaces, res.ProbesSent, res.NumInterfaces())
	}
}

// TestFacadeSingleShardPin holds a plain 1-shard RunYarrp6 — no
// telemetry, no progress writer, no interrupt — to what it produced at
// the last commit where such a run bypassed the campaign engine and drove
// a prober directly: store and graph bytes, elapsed time, and where the
// vantage's clock stands afterwards. The progress digest was recorded
// when the progress series replaced the discovery curve. The plan
// counters are the shared plan table's, which replaced that commit's
// private cache (6988/671/42/15 there): one miss per flow — 632 targets —
// and nothing evicted or served by another vantage.
func TestFacadeSingleShardPin(t *testing.T) {
	in := NewSmallInternet(3)
	v := in.NewVantage("pin-test")
	targets, err := in.TargetSet("caida", 64, "lowbyte1", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := v.RunYarrp6(targets, YarrpOptions{Rate: 2000, MaxTTL: 12, Key: 1, Fill: true, Graph: true})
	if err != nil {
		t.Fatal(err)
	}
	digest := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	var prog, g bytes.Buffer
	for _, p := range res.Progress {
		fmt.Fprintf(&prog, "%+v\n", p)
	}
	if err := res.Graph().WriteNDJSON(&g, nil); err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("store %s graph %s progress %s probes %d fills %d replies %d elapsed %d plan %d/%d/%d/%d clock %d/%d shardstats %d",
		digest(res.Store().AppendBinary(nil)), digest(g.Bytes()), digest(prog.Bytes()),
		res.ProbesSent, res.Fills, res.Replies, res.Elapsed,
		res.PlanHits, res.PlanMisses, res.PlanEvictions, res.SharedPlanHits,
		v.clk, v.v.Now(), len(res.ShardStats))
	const want = "store ae760b8b54c31ac5f2378479d5f8788df767476fcbf05419de81ae126a5ca35a" +
		" graph e19c551a58f8c7d3593e0abce47609889f0315140950202bc8b25222831be8d0" +
		" progress af3a16fa398549365bc8d1d8bba6e0fffd4881ac57947f6d3b7acbbf7b9cf652" +
		" probes 7659 fills 75 replies 5769 elapsed 5792000000 plan 7027/632/0/0" +
		" clock 5792000000/5792000000 shardstats 0"
	if got != want {
		t.Fatalf("1-shard run changed:\n got %s\nwant %s", got, want)
	}
}

// TestFacadeCrashedSingleShard: every run is a campaign, so a vantage
// that dies mid-run behaves the same at one shard as at many, telemetry
// or not — the shard is quarantined and the partial Result comes back
// without an error. Here the crash rule afflicts every shard ordinal, so
// the recovery probers' clones die at their first probe too and the
// unprobed remainder is reported in Incomplete rather than recovered.
func TestFacadeCrashedSingleShard(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	for _, withTelemetry := range []bool{false, true} {
		in := NewSmallInternet(3)
		in.SetFaults(&FaultConfig{Seed: 5, Rules: []FaultRule{
			{Vantage: "crash-test", Shard: FaultAnyShard, Kind: FaultCrash, At: 200 * time.Millisecond},
		}})
		v := in.NewVantage("crash-test")
		targets, err := in.TargetSet("caida", 64, "lowbyte1", 0.2)
		if err != nil {
			t.Fatal(err)
		}
		opt := YarrpOptions{Rate: 2000, MaxTTL: 12, Key: 1}
		if withTelemetry {
			opt.Telemetry = NewTelemetry()
		}
		res, err := v.RunYarrp6(targets, opt)
		if err != nil {
			t.Fatalf("telemetry=%v: crashed run returned error %v, want a degraded Result", withTelemetry, err)
		}
		if len(res.Quarantined) != 1 || res.Quarantined[0] != 0 {
			t.Fatalf("telemetry=%v: quarantined = %v, want [0]", withTelemetry, res.Quarantined)
		}
		// 2000 pps for 200 ms: the crash lands after 400 probes.
		domain := uint64(len(targets)) * 12
		if res.ProbesSent != 400 || res.NumInterfaces() == 0 {
			t.Fatalf("telemetry=%v: %d probes sent, %d interfaces; want the 400 pre-crash probes in the store",
				withTelemetry, res.ProbesSent, res.NumInterfaces())
		}
		var missing uint64
		for _, r := range res.Incomplete {
			missing += r.Hi - r.Lo
		}
		if last := res.Incomplete[len(res.Incomplete)-1]; missing != domain-400 || last.Hi != domain {
			t.Fatalf("telemetry=%v: incomplete %v covers %d indices, want the %d after the crash",
				withTelemetry, res.Incomplete, missing, domain-400)
		}
	}
}
