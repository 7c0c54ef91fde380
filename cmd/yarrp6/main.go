// Command yarrp6 runs a single Yarrp6 campaign against the simulated
// IPv6 internetwork and emits discovery results, in the spirit of the
// yarrp tool this library reproduces.
//
// Targets come either from -input (one IPv6 address per line) or from
// the built-in target generation pipeline via -seeds/-zn/-synth.
//
// Example:
//
//	yarrp6 -seeds cdn-k32 -zn 64 -synth fixediid -rate 1000 -fill
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/netip"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"

	"beholder"
	"beholder/internal/core"
	"beholder/internal/graph"
	"beholder/internal/wire"
)

// conflictf renders one flag-vs-artifact conflict when cond holds.
func conflictf(cond bool, format string, args ...any) string {
	if !cond {
		return ""
	}
	return fmt.Sprintf(format, args...)
}

func main() {
	var (
		simSeed   = flag.Int64("sim-seed", 2018, "simulated internetwork seed")
		small     = flag.Bool("small", false, "use the small universe")
		input     = flag.String("input", "", "target file (one IPv6 address per line)")
		seedsName = flag.String("seeds", "caida", "seed list for target generation")
		zn        = flag.Int("zn", 64, "prefix transformation level")
		synth     = flag.String("synth", "lowbyte1", "IID synthesis: lowbyte1|fixediid|randomiid|known")
		scale     = flag.Float64("scale", 0.5, "seed list scale")
		rate      = flag.Float64("rate", 1000, "probing rate (pps)")
		maxTTL    = flag.Int("maxttl", 16, "maximum randomized TTL")
		transport = flag.String("transport", "icmp6", "probe transport: icmp6|udp|tcp")
		fill      = flag.Bool("fill", false, "enable fill mode")
		key       = flag.Uint64("key", 0x6b657921, "permutation key")
		shards    = flag.Int("shards", 1, "concurrent prober instances splitting the permutation domain")
		batch     = flag.Int("batch", 0, "probe-pipeline send batch size (0 = engine default; results are identical at any value)")
		vantage   = flag.String("vantage", "US-EDU-1", "vantage name")
		hops      = flag.Bool("hops", false, "print per-target hop listings")
		graphOut  = flag.String("graph", "", "export the topology graph to this file (.ndjson for NDJSON, anything else for Graphviz DOT); the graph is built from the trace store when the run ends")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the campaign to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile (post-campaign) to this file")
		progress  = flag.String("progress", "", `stream virtual-time NDJSON progress samples to this file ("-" for stderr); byte-identical at any -shards/-batch`)
		progShard = flag.Bool("progress-shards", false, "append per-shard breakdown records to the progress stream")
		telAddr   = flag.String("telemetry-addr", "", "serve /metrics (Prometheus text), /debug/vars and /debug/pprof on this address (e.g. localhost:6060)")
		interrupt = flag.Duration("interrupt-at", 0, "stop the campaign at this virtual instant and write the -checkpoint artifact (resume later with -resume)")
		ckptPath  = flag.String("checkpoint", "", "file for the resume artifact of an interrupted campaign (required with -interrupt-at)")
		resume    = flag.String("resume", "", "resume a campaign from this checkpoint artifact; the artifact pins the campaign configuration, and explicitly-set target or tuning flags that contradict it are an error")

		adaptive = flag.Bool("adaptive", false, "closed-loop probabilistic generation: the -input/-seeds addresses become seed observations for a density-weighted prefix trie that generates targets epoch by epoch from discovery feedback")
		adBudget = flag.Int64("adaptive-budget", 0, "total probe budget across adaptation epochs (0 = bounded by -adaptive-epochs alone)")
		adPerEp  = flag.Int("adaptive-epoch-targets", 0, "targets generated per adaptation epoch (0 = engine default)")
		adEpochs = flag.Int("adaptive-epochs", 0, "maximum adaptation epochs (0 = engine default)")
		adAPD    = flag.Int("adaptive-apd", 1, "fully-responsive targets per /64 that nominate it for boundary alias detection (negative disables APD pruning)")
	)
	flag.Parse()
	if *interrupt > 0 && *ckptPath == "" {
		fmt.Fprintln(os.Stderr, "yarrp6: -interrupt-at requires -checkpoint")
		os.Exit(1)
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "yarrp6:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "yarrp6:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	defer writeMemProfile(*memProf)

	var in *beholder.Internet
	if *small {
		in = beholder.NewSmallInternet(*simSeed)
	} else {
		in = beholder.NewInternet(*simSeed)
	}
	v := in.NewVantage(*vantage)

	// On resume, the artifact is authoritative: it pins targets and
	// tuning, and an adaptive one carries its generator whole. Validate it
	// up front and cross-check every explicitly-set flag against it: a
	// contradiction is an error, never a silent preference for the
	// artifact's values.
	var resumeArt []byte
	var targets []netip.Addr
	if *resume != "" {
		var err error
		resumeArt, err = os.ReadFile(*resume)
		if err != nil {
			fmt.Fprintln(os.Stderr, "yarrp6:", err)
			os.Exit(1)
		}
		info, err := core.InspectCheckpoint(resumeArt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "yarrp6: %s is not a usable checkpoint: %v\n", *resume, err)
			os.Exit(1)
		}
		// Every target and -adaptive* flag conflicts, whatever the
		// artifact's kind — it pins the target set, and an adaptive one
		// its whole generator, -adaptive-apd included; a probing flag
		// conflicts when its value differs from the artifact's.
		effBatch := *batch
		if effBatch <= 0 {
			effBatch = core.DefaultBatch
		}
		wantProto, protoErr := wire.ProtoOfTransport(*transport)
		conflicts := map[string]func() string{
			"shards": func() string {
				return conflictf(*shards != info.Shards, "-shards %d (artifact: %d)", *shards, info.Shards)
			},
			"batch": func() string {
				return conflictf(effBatch != info.Batch, "-batch %d (artifact: %d)", *batch, info.Batch)
			},
			"transport": func() string {
				if protoErr != nil {
					return fmt.Sprintf("-transport %q (unknown; artifact: %s)", *transport, wire.TransportName(info.Proto))
				}
				return conflictf(wantProto != info.Proto, "-transport %s (artifact: %s)", *transport, wire.TransportName(info.Proto))
			},
			"rate": func() string {
				return conflictf(*rate != info.PPS, "-rate %g (artifact: %g)", *rate, info.PPS)
			},
			"maxttl": func() string {
				return conflictf(*maxTTL != int(info.MaxTTL), "-maxttl %d (artifact: %d)", *maxTTL, info.MaxTTL)
			},
			"key": func() string {
				return conflictf(*key != info.Key, "-key %#x (artifact: %#x)", *key, info.Key)
			},
			"fill": func() string {
				return conflictf(*fill != info.Fill, "-fill %v (artifact: %v)", *fill, info.Fill)
			},
		}
		for _, f := range []string{"input", "seeds", "zn", "synth", "scale"} {
			conflicts[f] = func() string { return "-" + f + " (the artifact pins the target set)" }
		}
		for _, f := range []string{"adaptive", "adaptive-budget", "adaptive-epoch-targets", "adaptive-epochs", "adaptive-apd"} {
			conflicts[f] = func() string { return "-" + f + " (the artifact pins the campaign kind and its generator)" }
		}
		var bad []string
		flag.Visit(func(f *flag.Flag) {
			if chk := conflicts[f.Name]; chk != nil {
				if msg := chk(); msg != "" {
					bad = append(bad, msg)
				}
			}
		})
		if len(bad) > 0 {
			fmt.Fprintln(os.Stderr, "yarrp6: -resume: the checkpoint pins the campaign configuration; conflicting flags:")
			for _, m := range bad {
				fmt.Fprintln(os.Stderr, "  "+m)
			}
			fmt.Fprintln(os.Stderr, "yarrp6: drop these flags, or set them to the artifact's values shown above")
			os.Exit(1)
		}
		kind := "static campaign"
		if info.Adaptive {
			kind = fmt.Sprintf("adaptive campaign at epoch %d", info.AdaptiveEpoch)
		}
		fmt.Fprintf(os.Stderr, "yarrp6: resuming %s from %s on vantage %s (%s): %d targets, %d shard(s), batch %d, %s, %g pps\n",
			kind, *resume, *vantage, v.Addr(), info.Targets, info.Shards, info.Batch, wire.TransportName(info.Proto), info.PPS)
	} else {
		var err error
		if *input != "" {
			targets, err = readTargets(*input)
		} else {
			targets, err = in.TargetSet(*seedsName, *zn, *synth, *scale)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "yarrp6:", err)
			os.Exit(1)
		}
		noun := "targets"
		if *adaptive {
			noun = "seed observations"
		}
		fmt.Fprintf(os.Stderr, "yarrp6: %d %s from vantage %s (%s), %g pps, maxttl %d, %d shard(s)\n",
			len(targets), noun, *vantage, v.Addr(), *rate, *maxTTL, *shards)
	}

	// The checkpoint file opens before the campaign runs: an unwritable
	// path must fail fast, not after minutes of probing.
	var ckptFile *os.File
	if *ckptPath != "" {
		f, err := os.Create(*ckptPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "yarrp6:", err)
			os.Exit(1)
		}
		ckptFile = f
	}

	// Telemetry registry: created for the HTTP endpoint, and also useful
	// on its own so the campaign summary can report cache effectiveness.
	var reg *beholder.TelemetryRegistry
	if *telAddr != "" {
		reg = beholder.NewTelemetry()
		bound, err := beholder.ServeTelemetry(*telAddr, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "yarrp6:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "yarrp6: telemetry on http://%s/metrics (profiles at /debug/pprof/)\n", bound)
	}
	var progW io.Writer
	if *progress == "-" {
		progW = os.Stderr
	} else if *progress != "" {
		f, err := os.Create(*progress)
		if err != nil {
			fmt.Fprintln(os.Stderr, "yarrp6:", err)
			os.Exit(1)
		}
		bw := bufio.NewWriter(f)
		defer func() { bw.Flush(); f.Close() }()
		progW = bw
	}

	opt := beholder.YarrpOptions{
		Graph: *graphOut != "", Telemetry: reg, Progress: progW, ProgressPerShard: *progShard,
		InterruptAt: *interrupt,
	}
	var res *beholder.Result
	var err error
	if *resume != "" {
		res, err = v.ResumeYarrp6(resumeArt, opt)
	} else {
		opt.Rate, opt.MaxTTL, opt.Transport, opt.Fill, opt.Key = *rate, *maxTTL, *transport, *fill, *key
		opt.Shards, opt.Batch = *shards, *batch
		if *adaptive {
			opt.Adaptive = &beholder.AdaptiveOptions{
				Budget:       *adBudget,
				EpochTargets: *adPerEp,
				MaxEpochs:    *adEpochs,
				AliasMinHits: *adAPD,
			}
		}
		res, err = v.RunYarrp6(targets, opt)
	}
	interrupted := errors.Is(err, beholder.ErrInterrupted)
	if err != nil && !interrupted {
		fmt.Fprintln(os.Stderr, "yarrp6:", err)
		os.Exit(1)
	}
	if ckptFile != nil {
		if interrupted {
			if _, werr := ckptFile.Write(res.Checkpoint); werr != nil {
				fmt.Fprintln(os.Stderr, "yarrp6:", werr)
				os.Exit(1)
			}
			if werr := ckptFile.Close(); werr != nil {
				fmt.Fprintln(os.Stderr, "yarrp6:", werr)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "yarrp6: interrupted at %s; checkpoint (%d bytes) written to %s\n",
				res.Elapsed, len(res.Checkpoint), *ckptPath)
		} else {
			// The campaign outran -interrupt-at (or none was set); no
			// artifact exists, so don't leave an empty file behind.
			ckptFile.Close()
			os.Remove(*ckptPath)
		}
	}
	if len(res.Quarantined) > 0 {
		fmt.Fprintf(os.Stderr, "yarrp6: %d shard(s) quarantined after fatal faults; %d range(s) unrecovered\n",
			len(res.Quarantined), len(res.Incomplete))
	}

	fmt.Printf("probes %d fills %d replies %d interfaces %d elapsed %s\n",
		res.ProbesSent, res.Fills, res.Replies, res.NumInterfaces(), res.Elapsed)
	fmt.Fprintf(os.Stderr, "yarrp6: plan table %d hits / %d misses (%d evictions), %d shared-core hits; %d slots, %d cores, %d growths, %d routers\n",
		res.PlanHits, res.PlanMisses, res.PlanEvictions, res.SharedPlanHits,
		res.PlanTableSlots, res.PlanTableCores, res.PlanTableGrowths, res.PlanTableRouters)
	fmt.Fprintf(os.Stderr, "yarrp6: address tables %d slots, %d addresses\n", res.AddrTableSlots, res.AddrTableAddrs)
	if *graphOut != "" {
		// AS-annotated from the simulator's BGP table; NDJSON or DOT by
		// file extension.
		if err := graph.WriteFile(*graphOut, res.Graph(), in.Universe().Table()); err != nil {
			fmt.Fprintln(os.Stderr, "yarrp6:", err)
			os.Exit(1)
		}
		g := res.Graph()
		fmt.Fprintf(os.Stderr, "yarrp6: graph %s: %d nodes, %d edges\n", *graphOut, g.NumNodes(), g.NumEdges())
	}
	if *hops {
		for _, t := range targets {
			path := res.Path(t)
			if len(path) == 0 {
				continue
			}
			fmt.Printf("%s\n", t)
			for _, h := range path {
				fmt.Printf("  %2d  %s\n", h.TTL, h.Addr)
			}
		}
	} else {
		ifaces := res.Interfaces()
		sort.Slice(ifaces, func(i, j int) bool { return ifaces[i].Less(ifaces[j]) })
		for _, a := range ifaces {
			fmt.Println(a)
		}
	}
}

// writeMemProfile dumps a garbage-collected heap profile, so hot-path
// allocation regressions can be diagnosed without editing code.
func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "yarrp6:", err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "yarrp6:", err)
	}
}

func readTargets(path string) ([]netip.Addr, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []netip.Addr
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		a, err := netip.ParseAddr(line)
		if err != nil {
			return nil, fmt.Errorf("bad target %q: %w", line, err)
		}
		out = append(out, a)
	}
	return out, sc.Err()
}
