package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"beholder"
	"beholder/internal/target"
)

// inprocDef is one in-process workload: a target pipeline plus the
// campaign options every op of it runs with.
type inprocDef struct {
	name      string
	list      string
	synth     target.Synth
	scale     float64
	shards    int
	fill      bool
	graph     bool
	minProbes int64 // least probes per measured op (0: unchecked)
	saturated bool  // the op must hit ICMPv6 rate limiting
}

func inprocWorkload(name string, p params) (inprocDef, bool) {
	switch name {
	case "wide-serial":
		return inprocDef{name: name, list: "tum", synth: target.LowByte1, scale: p.wideScale,
			shards: 1, minProbes: p.minWide}, true
	case "sharded-saturated":
		return inprocDef{name: name, list: "fdns_any", synth: target.FixedIID, scale: p.shardedScale,
			shards: p.shards, fill: true, graph: true, minProbes: p.minSharded,
			saturated: p.minSharded > 0}, true // the toy scale is too small to saturate
	}
	return inprocDef{}, false
}

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, so one slow page-in does not read as a set-up regression.
const setupReps = 3

// result is one run of one workload.
type result struct {
	metrics   map[string]float64
	attempted int
	failed    int
	failures  []string // what failed, for stderr
	digest    string   // SHA-256 of the campaign store (daemon: of every measured campaign's persisted store)
	samples   int      // latency samples behind the percentiles
}

func (r *result) fail(format string, a ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, a...))
	}
}

// printFailures lists what failed on standard error.
func (r *result) printFailures(label string) {
	for _, f := range r.failures {
		fmt.Fprintf(os.Stderr, "bench: %s: FAILED: %s\n", label, f)
	}
}

// opSample is one measured campaign.
type opSample struct {
	wall    time.Duration
	probes  int64
	mallocs uint64
	bytes   uint64
	cpu     time.Duration // user + system time of this process over the op
	ifaces  int
	dropped int64 // universe-wide RateLimitDropped over the op
	digest  [32]byte
	res     *beholder.Result
}

// runOp runs one campaign on a pristine universe state from a fresh
// vantage — reps are independent — and measures it from outside.
func runOp(in *beholder.Internet, c campaignInput) (opSample, error) {
	in.Reset()
	v := in.NewVantage(vantageName)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := processCPU()
	t0 := time.Now()
	res, err := v.RunYarrp6(c.targets, c.options())
	wall := time.Since(t0)
	cpu := processCPU() - c0
	runtime.ReadMemStats(&m1)
	if err != nil {
		return opSample{}, err
	}
	return opSample{
		wall: wall, probes: res.ProbesSent,
		mallocs: m1.Mallocs - m0.Mallocs, bytes: m1.TotalAlloc - m0.TotalAlloc, cpu: cpu,
		ifaces:  res.NumInterfaces(),
		dropped: in.Universe().StatsSnapshot().RateLimitDropped,
		digest:  sha256.Sum256(res.Store().AppendBinary(nil)),
		res:     res,
	}, nil
}

// processCPU is the user + system time this process has consumed.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// setupInproc builds the universe and the workload's target set.
func setupInproc(d inprocDef, p params) (*beholder.Internet, []netip.Addr, error) {
	in := newInternet(p.small)
	targets, err := seedTargets(in, p, d.list, d.synth, d.scale)
	return in, targets, err
}

// runInproc measures an in-process workload end to end, tracing off:
// set-up three times, one discarded warm-up campaign (the 1-shard run
// every measured store must byte-equal), then campaigns until the
// window closes.
func runInproc(ctx context.Context, d inprocDef, p params, seed int64, seconds float64) (*result, error) {
	var (
		setups  []float64
		in      *beholder.Internet
		targets []netip.Addr
	)
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		if in, targets, err = setupInproc(d, p); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	c := campaignInput{targets: targets, key: deriveKey(seed, keyInproc, 0), shards: d.shards, fill: d.fill, graph: d.graph}
	serial := c
	serial.shards = 1
	ref, err := runOp(in, serial)
	if err != nil {
		return nil, fmt.Errorf("%s warm-up: %w", d.name, err)
	}

	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	r := &result{metrics: make(map[string]float64), digest: hex.EncodeToString(ref.digest[:])}
	var pps, allocs, bytes, cpu, cps, walls []float64
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if len(walls) >= p.minOps && time.Now().Add(time.Duration(median(walls)*float64(time.Millisecond))).After(deadline) {
			break
		}
		op, err := runOp(in, c)
		if err != nil {
			return nil, fmt.Errorf("%s op %d: %w", d.name, len(walls), err)
		}
		r.attempted++
		switch {
		case op.digest != ref.digest:
			r.fail("op %d: %d-shard store differs from the 1-shard store", len(walls), c.shards)
		case op.probes < d.minProbes:
			r.fail("op %d: %d probes, want >= %d", len(walls), op.probes, d.minProbes)
		case d.saturated && op.dropped == 0:
			r.fail("op %d: no rate-limit drops; the workload no longer saturates", len(walls))
		}
		s := op.wall.Seconds()
		n := float64(op.probes)
		pps = append(pps, n/s)
		allocs = append(allocs, float64(op.mallocs)/n)
		bytes = append(bytes, float64(op.bytes)/n)
		cpu = append(cpu, float64(op.cpu)/n)
		cps = append(cps, 1/s)
		walls = append(walls, s*1000)
		r.metrics["interfaces_per_kprobe"] = float64(op.ifaces) / n * 1000
	}
	r.samples = len(walls)
	r.metrics["setup_s"] = median(setups)
	r.metrics["probes_per_s"] = median(pps)
	r.metrics["allocs_per_probe"] = median(allocs)
	r.metrics["alloc_bytes_per_probe"] = median(bytes)
	r.metrics["cpu_ns_per_probe"] = median(cpu)
	r.metrics["campaigns_per_s"] = median(cps)
	r.metrics["submit_to_done_ms_p50"] = median(walls)
	return r, nil
}

// traceInproc is the traced run of an in-process workload: the layer
// pass over its one campaign.
func traceInproc(ctx context.Context, d inprocDef, p params, seed int64, e env) (*result, error) {
	in, targets, err := setupInproc(d, p)
	if err != nil {
		return nil, err
	}
	c := campaignInput{targets: targets, key: deriveKey(seed, keyInproc, 0), shards: d.shards, fill: d.fill, graph: d.graph}
	r := &result{metrics: make(map[string]float64)}
	m, tr, err := runLayers(ctx, in, []campaignInput{c}, p, e.tmp, r)
	if err != nil {
		return nil, err
	}
	for _, name := range daemonLayerMetrics {
		m[name] = 0
	}
	r.metrics = m
	r.samples = 1
	if e.traceDir != "" {
		if err := tr.writeFile(filepath.Join(e.traceDir, "trace-"+d.name+".json")); err != nil {
			return nil, err
		}
	}
	return r, nil
}
