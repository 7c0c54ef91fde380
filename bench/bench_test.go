package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"beholder/internal/target"
)

// TestCatalogue pins the output contract: names, units and counts are
// within the limits, and the checked-in BENCHMARK.json is the one this
// catalogue renders.
func TestCatalogue(t *testing.T) {
	if err := checkCatalogue(); err != nil {
		t.Fatal(err)
	}
	have, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(have, manifestJSON()) {
		t.Fatal("BENCHMARK.json has drifted from the catalogue; regenerate it with `go run . -manifest > ../BENCHMARK.json`")
	}
}

// TestQuartiles pins the estimator to Python's statistics.quantiles.
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 2, 9, 3, 8, 4, 7, 5, 6})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got := spread([]float64{10, 1, 2, 9, 3, 8, 4, 7, 5, 6}); got != 1 {
		t.Fatalf("spread = %v, want 1", got)
	}
	if got := percentile([]float64{5, 1, 4, 2, 3}, 95); got != 5 {
		t.Fatalf("p95 of 1..5 = %v, want 5", got)
	}
}

// TestSeedTargetsMatchFacade pins the single-list target pipeline to the
// facade's: the benchmark probes what `-seeds tum -zn 64 -synth lowbyte1`
// means everywhere else in the repository.
func TestSeedTargetsMatchFacade(t *testing.T) {
	p := toyParams()
	p.maxTargets = 0
	in := newInternet(true)
	for _, c := range []struct {
		list, synthName string
		synth           target.Synth
	}{{"tum", "lowbyte1", target.LowByte1}, {"fdns_any", "fixediid", target.FixedIID}} {
		want, err := in.TargetSet(c.list, 64, c.synthName, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		got, err := seedTargets(in, p, c.list, c.synth, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d targets, facade %d", c.list, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: target %d differs from the facade's", c.list, i)
			}
		}
	}
}

// TestVerifyCountsLostLoad pins what a daemon run may not hide: a
// campaign refused in the warm-up ends that tenant's script, so the
// region measured half the load — the run must report failures, not
// clean numbers of another experiment.
func TestVerifyCountsLostLoad(t *testing.T) {
	plan := &tenantPlan{script: script{tenants: 2, warm: 1, count: 3}}
	samples := []sample{{tenant: 1, index: 0, key: "t1__c0", err: errors.New("submit t1__c0: 429 Too Many Requests")}}
	r := &result{metrics: make(map[string]float64)}
	if err := new(instance).verify(samples, plan, t.TempDir(), r); err != nil {
		t.Fatal(err)
	}
	// The refused warm-up submit, and two tenants short of their 3 campaigns.
	if r.failed != 3 || r.attempted != 3 {
		t.Fatalf("%d of %d operations failed, want 3 of 3: %v", r.failed, r.attempted, r.failures)
	}
}

// TestSmoke runs all four workloads, untraced and traced, at toy scale:
// every catalogued metric is emitted as a finite number, no correctness
// check fails (replay ≡ engine, merged windows ≡ engine, daemon blobs ≡
// solo runs), the driver line round-trips, and the span files are
// written.
func TestSmoke(t *testing.T) {
	ctx := context.Background()
	p := toyParams()
	bin, err := buildDaemon(ctx, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := env{daemonBin: bin, tmp: t.TempDir(), traceDir: t.TempDir()}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			r, err := runWorkload(ctx, w.Name, p, 7, 0.2, traced, e)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if r.failed != 0 || r.attempted == 0 {
				t.Fatalf("%s traced=%v: %d of %d operations failed: %v", w.Name, traced, r.failed, r.attempted, r.failures)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			line, err := driverLine(r, defs)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			var back struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(line), &back); err != nil {
				t.Fatal(err)
			}
			if !back.Correct || back.Attempted < 1 || back.Failed != 0 || len(back.Metrics) != len(defs) {
				t.Fatalf("%s traced=%v: bad driver line %s", w.Name, traced, line)
			}
			for _, d := range defs {
				m, ok := back.Metrics[d.Name]
				if !ok || m.Value == nil || m.Unit != d.Unit || math.IsInf(*m.Value, 0) {
					t.Fatalf("%s traced=%v: metric %s missing or malformed in %s", w.Name, traced, d.Name, line)
				}
				// The daemon's CPU time comes in 10 ms ticks, which a toy region
				// may not fill; every other end-to-end metric is never 0.
				if !traced && *m.Value <= 0 && d.Name != "cpu_ns_per_probe" {
					t.Fatalf("%s: end-to-end metric %s = %v, want > 0", w.Name, d.Name, *m.Value)
				}
			}
			if traced {
				if _, err := os.Stat(filepath.Join(e.traceDir, "trace-"+w.Name+".json")); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if left, _ := os.ReadDir(e.tmp); len(left) != 0 {
		t.Fatalf("%d entries left in the scratch directory", len(left))
	}
}

// TestSetReport runs the whole set as an A/A pair at toy scale and checks
// the output file: every workload carries every end-to-end metric with
// both sides and a noise floor, and every per-layer metric. (Whether the
// toy-sized sides agree within the bounds is not asserted; they are far
// too short for that.)
func TestSetReport(t *testing.T) {
	bin, err := buildDaemon(context.Background(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := env{daemonBin: bin, tmp: t.TempDir()}
	out := filepath.Join(t.TempDir(), "report.json")
	runSet(context.Background(), toyParams(), e, 7, 0.1, true, 2, out)
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads map[string]struct {
			Failed   int
			EndToEnd map[string]struct {
				A, B       *sideStats
				NoiseFloor *float64 `json:"noise_floor"`
			} `json:"end_to_end"`
			PerLayer map[string]float64 `json:"per_layer"`
		}
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		wr, ok := doc.Workloads[w.Name]
		if !ok || wr.Failed != 0 || len(wr.PerLayer) != len(perLayer) {
			t.Fatalf("%s: missing, failed or short of per-layer metrics in the report", w.Name)
		}
		for _, m := range endToEnd {
			mr, ok := wr.EndToEnd[m.Name]
			if !ok || mr.A == nil || mr.B == nil || mr.NoiseFloor == nil || len(mr.A.Values) != 2 {
				t.Fatalf("%s %s: incomplete in the report", w.Name, m.Name)
			}
		}
	}
}
