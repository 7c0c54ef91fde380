// Command bench is the repository's benchmark: four named workloads
// measured end to end with tracing off, and one traced run per workload
// that times the calls into each layer's public functions from this
// directory's own files and checks that they add up. See README.md for
// the metric and workload catalogues and how to read the output.
//
// The benchmark driver runs it through run.sh as
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// which measures one workload and prints one JSON object as the last
// line of standard output. Without --workload it runs the whole set
// (see -aa and -out).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"syscall"
)

func main() { os.Exit(run()) }

// env is where a run finds the things outside its inputs.
type env struct {
	daemonBin string // prebuilt beholderd
	tmp       string // scratch directory for state dirs
	traceDir  string // where a traced run writes its spans ("" = nowhere)
}

func run() int {
	var (
		workload  = flag.String("workload", "", "measure this one workload and print the driver's JSON line (default: the whole set)")
		seed      = flag.Int64("seed", 2018, "run seed: permutation keys, target subsets and tenant scripts derive from it")
		seconds   = flag.Float64("seconds", runSeconds, "how long one run measures")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced run and its per-layer metrics")
		traceDir  = flag.String("trace-dir", "", "with a traced run: write trace-<workload>.json span files into this directory")
		daemonBin = flag.String("daemon-bin", "", "prebuilt beholderd binary (default: go build it into a temporary directory)")
		tmp       = flag.String("tmp", "", "scratch directory for daemon state dirs (default: the system's)")
		aa        = flag.Bool("aa", false, "whole set: run it twice in alternating order and report the noise floor")
		runs      = flag.Int("runs", 5, "with -aa: runs per side and workload, each under another seed")
		out       = flag.String("out", "", "whole set: also write results, noise floor and environment to this JSON file")
		manifest  = flag.Bool("manifest", false, "print the BENCHMARK.json this catalogue corresponds to and exit")
	)
	flag.Parse()
	if err := checkCatalogue(); err != nil {
		fmt.Fprintln(os.Stderr, "bench: catalogue:", err)
		return 2
	}
	if *manifest {
		os.Stdout.Write(manifestJSON())
		return 0
	}
	// BENCHMARK.json is the driver's manifest (-manifest prints it) and
	// holds nothing but the catalogue; results go to a file of their own.
	if filepath.Base(*out) == "BENCHMARK.json" {
		fmt.Fprintln(os.Stderr, "bench: -out BENCHMARK.json would overwrite the driver's manifest; write results to baseline.json")
		return 2
	}

	// Every exit path below runs the deferred clean-up: a signal cancels
	// the context, the workloads return, daemons are killed and reaped,
	// state directories removed.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	e := env{daemonBin: *daemonBin, tmp: *tmp, traceDir: *traceDir}
	if e.tmp == "" {
		e.tmp = os.TempDir()
	}
	if err := os.MkdirAll(e.tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if e.traceDir != "" {
		if err := os.MkdirAll(e.traceDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	needDaemon := *workload == ""
	if _, ok := daemonWorkload(*workload, fullParams()); ok {
		needDaemon = true
	}
	if needDaemon && e.daemonBin == "" {
		dir, err := os.MkdirTemp(e.tmp, "bench-bin-")
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		defer os.RemoveAll(dir)
		if e.daemonBin, err = buildDaemon(ctx, dir); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}

	p := fullParams()
	if *workload == "" {
		return runSet(ctx, p, e, *seed, *seconds, *aa, *runs, *out)
	}

	r, err := runWorkload(ctx, *workload, p, *seed, *seconds, *trace != 0, e)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	r.printFailures(*workload)
	fmt.Fprintf(os.Stderr, "bench: %s: %d operations, %d failed, %d latency samples\n", *workload, r.attempted, r.failed, r.samples)
	defs := endToEnd
	if *trace != 0 {
		defs = perLayer
	}
	line, err := driverLine(r, defs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(line)
	if r.failed > 0 {
		return 1
	}
	return 0
}

// buildDaemon compiles beholderd once into dir. The working directory
// must be inside this module (as it is under `go run .` and `go test`);
// run.sh builds the binary itself and passes -daemon-bin instead.
func buildDaemon(ctx context.Context, dir string) (string, error) {
	bin := filepath.Join(dir, "beholderd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "beholder/cmd/beholderd")
	if b, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build beholderd: %v\n%s", err, b)
	}
	return bin, nil
}

// runWorkload measures one workload once.
func runWorkload(ctx context.Context, name string, p params, seed int64, seconds float64, traced bool, e env) (*result, error) {
	if d, ok := inprocWorkload(name, p); ok {
		if traced {
			return traceInproc(ctx, d, p, seed, e)
		}
		return runInproc(ctx, d, p, seed, seconds)
	}
	if d, ok := daemonWorkload(name, p); ok {
		if traced {
			return traceDaemon(ctx, d, p, seed, seconds, e)
		}
		return runDaemon(ctx, d, p, seed, seconds, e)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// driverLine renders a run as the driver's result object. It fails when
// a catalogued metric is missing or not a finite number: the catalogue
// and the code that fills it must not drift.
func driverLine(r *result, defs []metricDef) (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	doc := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: r.failed == 0, Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: make(map[string]mv)}
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", d.Name)
		}
		doc.Metrics[d.Name] = mv{v, d.Unit}
	}
	b, err := json.Marshal(doc)
	if err != nil { // NaN or Inf: some division had nothing to divide by
		return "", fmt.Errorf("a metric is not a finite number: %w", err)
	}
	return string(b), nil
}
