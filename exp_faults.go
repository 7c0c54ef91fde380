package beholder

// Fault-robustness study: the campaign engine driven over an actively
// misbehaving network. Each scenario installs one fault class from the
// deterministic injection plane (internal/faultsim) and reruns the same
// campaign, reporting what the recovery machinery did — quarantined
// shards continued on fresh connections, bounded retries — and whether
// the merged store still matches the fault-free run. Not part of Experiments.All(): the
// paper's evaluation has no fault figures; run it with
// `beholder -faults`.

import (
	"strconv"
	"time"

	"beholder/internal/target"
)

// FaultStudy runs one campaign per injected fault class and tabulates
// the recovery outcome against the fault-free baseline.
func (e *Experiments) FaultStudy() *Table {
	t := &Table{
		ID:    "Faults (robustness)",
		Title: "Campaign recovery under injected vantage and path faults (2 shards)",
		Headers: []string{"Scenario", "Probes", "Replies", "Retries",
			"Quarantined", "Incomplete", "Ifaces", "Store vs clean"},
	}

	const vantage = "FAULT-LAB"
	set := e.targetSet("caida", 64, target.LowByte1)
	addrs := set.Targets.Addrs()
	// The campaign send window in virtual time anchors the fault
	// instants mid-run.
	window := time.Duration(float64(len(addrs)*16) / e.opt.Rate * float64(time.Second))

	run := func(fc *FaultConfig) *Result {
		e.in.Reset()
		e.in.SetFaults(fc)
		defer e.in.SetFaults(nil)
		v := e.in.NewVantageAt(vantage, "university", 4)
		res, err := v.RunYarrp6(addrs, YarrpOptions{
			Rate: e.opt.Rate, MaxTTL: 16, Key: 1, Fill: true, Shards: 2,
		})
		if err != nil {
			panic(err)
		}
		return res
	}

	scenarios := []struct {
		name  string
		rules []FaultRule
	}{
		{"clean", nil},
		{"crash shard 1", []FaultRule{
			{Vantage: vantage, Shard: 1, Kind: FaultCrash, At: window * 3 / 4}}},
		{"stall window", []FaultRule{
			{Vantage: vantage, Shard: FaultAnyShard, Kind: FaultStall, At: window / 5, Duration: window / 6}}},
		{"transient sends", []FaultRule{
			{Vantage: vantage, Shard: FaultAnyShard, Kind: FaultTransientSend, Prob: 0.05}}},
		{"corrupt replies", []FaultRule{
			{Vantage: vantage, Shard: FaultAnyShard, Kind: FaultCorruptReply, Prob: 0.2}}},
		{"delay burst", []FaultRule{
			{Vantage: vantage, Shard: FaultAnyShard, Kind: FaultDelayBurst, At: window / 3, Duration: window / 4}}},
	}

	var clean *Result
	for _, sc := range scenarios {
		var fc *FaultConfig
		if sc.rules != nil {
			fc = &FaultConfig{Seed: uint64(e.opt.Seed) ^ 0xfa17, Rules: sc.rules}
		}
		res := run(fc)
		if sc.name == "clean" {
			clean = res
		}
		var retries int64
		for _, s := range res.ShardStats {
			retries += s.Retries
		}
		equal := "equal"
		if !res.Store().Equal(clean.Store()) {
			equal = "differs"
		}
		t.AddRow(sc.name, kfmt(res.ProbesSent), kfmt(res.Replies), strconv.Itoa(int(retries)),
			strconv.Itoa(len(res.Quarantined)), strconv.Itoa(len(res.Incomplete)),
			strconv.Itoa(res.NumInterfaces()), equal)
	}
	t.Notes = append(t.Notes,
		"Fault draws are keyed hashes of absolute virtual time, so every scenario is exactly reproducible and commutes with checkpoint/resume.",
		"A crashed shard's remaining permutation range is re-probed through fresh connections at the original schedule instants; with lossless replies the store matches the fault-free run.",
		"Stalls and corruption lose or damage replies, so those stores legitimately differ; the permutation-driven probe count never does.")
	return t
}
