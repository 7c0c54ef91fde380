package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
)

// sideStats summarises one side of an A/A comparison for one metric.
type sideStats struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

func summarise(vs []float64) sideStats {
	q1, q2, q3 := quartiles(vs)
	return sideStats{Median: q2, Q1: q1, Q3: q3, Values: vs}
}

// metricReport is one end-to-end metric of one workload in the output
// file.
type metricReport struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
	// Present after -aa: both sides, how much worse B's median read than
	// A's (negative: better), and the noise floor — the wider of the two
	// sides' inter-quartile spreads as a share of the median.
	A          *sideStats `json:"a,omitempty"`
	B          *sideStats `json:"b,omitempty"`
	WorseBy    *float64   `json:"b_worse_by,omitempty"`
	NoiseFloor *float64   `json:"noise_floor,omitempty"`
}

type workloadReport struct {
	Why       string                  `json:"why"`
	Params    string                  `json:"parameters"`
	Digest    string                  `json:"store_sha256,omitempty"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	EndToEnd  map[string]metricReport `json:"end_to_end"`
	PerLayer  map[string]float64      `json:"per_layer"`
}

// worseBy is how much worse b reads than a, as a share of a, in the
// metric's own direction.
func worseBy(m metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runSet runs every workload — once untraced and once traced, or with
// aa the untraced run 2 × runs times as sides A and B in alternating
// order (A₁B₁A₂B₂…, run i of both sides under seed+i) — prints every
// metric as `workload metric value unit`, and reports whether the two
// sides of identical code agree within the benchmark's own bounds.
func runSet(ctx context.Context, p params, e env, seed int64, seconds float64, aa bool, runs int, out string) int {
	status := 0
	report := make(map[string]*workloadReport)
	for _, w := range workloads {
		wr := &workloadReport{Why: w.Why, Params: describe(w.Name, p), EndToEnd: make(map[string]metricReport), PerLayer: make(map[string]float64)}
		report[w.Name] = wr
		sides := [2]map[string][]float64{{}, {}}
		n := 1
		if aa {
			n = 2 * runs
		}
		var pairDigest string
		for i := 0; i < n; i++ {
			r, err := runWorkload(ctx, w.Name, p, seed+int64(i/2), seconds, false, e)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
				return 1
			}
			r.printFailures(w.Name)
			wr.Attempted += r.attempted
			wr.Failed += r.failed
			// Runs 2k and 2k+1 are A and B under one seed: the same inputs
			// must leave the same stores, byte for byte.
			if i%2 == 0 {
				pairDigest = r.digest
			} else {
				wr.Attempted++
				if r.digest != pairDigest {
					fmt.Fprintf(os.Stderr, "bench: %s: FAILED: seed %d: store digest %s on side B, %s on side A\n", w.Name, seed+int64(i/2), r.digest, pairDigest)
					wr.Failed++
				}
			}
			if i == 0 {
				wr.Digest = r.digest
			}
			for _, m := range endToEnd {
				sides[i%2][m.Name] = append(sides[i%2][m.Name], r.metrics[m.Name])
			}
		}
		for _, m := range endToEnd {
			a, b := sides[0][m.Name], sides[1][m.Name]
			mr := metricReport{Value: median(append(append([]float64(nil), a...), b...)), Unit: m.Unit, Bound: m.Bound}
			fmt.Printf("%s %s %v %s\n", w.Name, m.Name, mr.Value, m.Unit)
			if aa {
				sa, sb := summarise(a), summarise(b)
				wb := worseBy(m, sa.Median, sb.Median)
				floor := max(spread(a), spread(b))
				mr.A, mr.B, mr.WorseBy, mr.NoiseFloor = &sa, &sb, &wb, &floor
				verdict := "ok"
				if wb > m.Bound || (m.Name != "setup_s" && floor > m.Bound) {
					verdict = "OUTSIDE BOUND"
					status = 1
				}
				fmt.Fprintf(os.Stderr, "aa %-20s %-22s A %.6g [%.6g, %.6g]  B %.6g [%.6g, %.6g]  B worse by %+.2f%%  floor %.2f%%  bound %.0f%%  %s\n",
					w.Name, m.Name, sa.Median, sa.Q1, sa.Q3, sb.Median, sb.Q1, sb.Q3, 100*wb, 100*floor, 100*m.Bound, verdict)
			}
			wr.EndToEnd[m.Name] = mr
		}

		r, err := runWorkload(ctx, w.Name, p, seed, seconds, true, e)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s (traced): %v\n", w.Name, err)
			return 1
		}
		r.printFailures(w.Name + " (traced)")
		wr.Attempted += r.attempted
		wr.Failed += r.failed
		for _, m := range perLayer {
			wr.PerLayer[m.Name] = r.metrics[m.Name]
			fmt.Printf("%s %s %v %s\n", w.Name, m.Name, r.metrics[m.Name], m.Unit)
		}
		if _, inproc := inprocWorkload(w.Name, p); inproc {
			// Past these limits the stage times no longer decompose the
			// end-to-end figure, and the set fails.
			if v := r.metrics["trace.overhead_share"]; v > 0.05 {
				fmt.Fprintf(os.Stderr, "bench: %s: FAILED: trace.overhead_share %.3f above 0.05\n", w.Name, v)
				status = 1
			}
			if v := r.metrics["layers.unattributed_share"]; w.Name == "wide-serial" && (v > 0.10 || v < -0.10) {
				fmt.Fprintf(os.Stderr, "bench: %s: FAILED: layers.unattributed_share %.3f outside ±0.10\n", w.Name, v)
				status = 1
			}
		}
		fmt.Printf("%s failed_share %v share\n", w.Name, float64(wr.Failed)/float64(max(wr.Attempted, 1)))
		if wr.Failed > 0 {
			status = 1
		}
	}
	if out != "" {
		aaRuns := 0
		if aa {
			aaRuns = runs
		}
		doc := map[string]any{
			"note":        "baseline numbers of the commit that defined the benchmark; no gain is claimed. Regenerate with `go run . -aa -out baseline.json` from bench/.",
			"seed":        seed,
			"seconds":     seconds,
			"aa_runs":     aaRuns,
			"environment": environment(e),
			"metrics":     map[string]any{"end_to_end": endToEnd, "per_layer": perLayer},
			"workloads":   report,
		}
		b, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	return status
}

// describe states a workload's parameters for the output file.
func describe(name string, p params) string {
	common := fmt.Sprintf("universe %d, rate %d pps, max TTL %d, vantage %s", universeSeed, probeRate, probeMaxTTL, vantageName)
	switch name {
	case "wide-serial":
		return fmt.Sprintf("in-process RunYarrp6; tum z64 lowbyte1 at scale %v; 1 shard; no fill, no graph; %s", p.wideScale, common)
	case "sharded-saturated":
		return fmt.Sprintf("in-process RunYarrp6; fdns_any z64 fixediid at scale %v; %d shards; fill, graph; %s", p.shardedScale, p.shards, common)
	case "daemon-burst":
		return fmt.Sprintf("beholderd -small -workers 2 -checkpoint-every 0; %d closed-loop tenants, %d instances; campaigns of %d explicit targets drawn from tum z64 lowbyte1 at scale %v; %d discarded per client; every %dth compared with a solo run; %s",
			daemonTenants, p.burstInstances, p.burstTargets, p.burstPoolScale, p.burstWarm, p.burstCheck, common)
	case "daemon-checkpointed":
		return fmt.Sprintf("beholderd -workers 2 -checkpoint-every %v; %d closed-loop tenants; %d-shard campaigns of tum z64 lowbyte1 at scale %v; %d discarded per client; every campaign compared with a solo run; %s",
			p.ckptEvery, daemonTenants, p.ckptShards, p.ckptScale, p.ckptWarm, common)
	}
	return common
}

// environment records what the numbers were measured on.
func environment(e env) map[string]any {
	commit := "unknown"
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(b))
	}
	fs := "unknown"
	var st syscall.Statfs_t
	if err := syscall.Statfs(e.tmp, &st); err == nil {
		switch uint32(st.Type) {
		case 0xEF53:
			fs = "ext2/ext3/ext4"
		case 0x01021994:
			fs = "tmpfs"
		case 0x794c7630:
			fs = "overlayfs"
		case 0x58465342:
			fs = "xfs"
		case 0x9123683E:
			fs = "btrfs"
		default:
			fs = fmt.Sprintf("0x%x", uint32(st.Type))
		}
	}
	return map[string]any{
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"go":           runtime.Version(),
		"state_dir_fs": fs,
		"transport":    "loopback HTTP, local shared disk",
		"commit":       commit,
	}
}
