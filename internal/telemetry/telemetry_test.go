package telemetry

import (
	"bytes"
	"io"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestCounterGaugeHistogram(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	var g Gauge
	g.Set(7)
	g.Set(3)
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge = %d, want 3", got)
	}
	r := NewRegistry()
	h := r.Histogram("h", []int64{10, 20})
	for _, v := range []int64{5, 10, 11, 20, 21, 1000} {
		h.Observe(v)
	}
	hv, ok := r.Snapshot().Histogram("h")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	wantCounts := []int64{2, 2, 2} // ≤10, ≤20, overflow
	for i, w := range wantCounts {
		if hv.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d", i, hv.Counts[i], w)
		}
	}
	if hv.Count != 6 || hv.Sum != 5+10+11+20+21+1000 {
		t.Fatalf("count/sum = %d/%d", hv.Count, hv.Sum)
	}
	// Nil instruments — a component built without a registry — swallow
	// every write.
	var (
		nc *Counter
		ng *Gauge
		nh *Histogram
	)
	nc.Inc()
	nc.Add(4)
	ng.Set(7)
	nh.Observe(5)
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("Counter not idempotent")
	}
	if r.Gauge("b") != r.Gauge("b") {
		t.Fatal("Gauge not idempotent")
	}
	if r.Histogram("c", RTTBucketsUSec) != r.Histogram("c", nil) {
		t.Fatal("Histogram not idempotent")
	}
}

// TestSnapshotDelta: Snapshot.Sub subtracts counters, passes through
// what the earlier snapshot lacks, and keeps gauges at their current
// readings.
func TestSnapshotDelta(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("probes")
	g := r.Gauge("ifaces")
	c.Add(10)
	g.Set(3)
	s1 := r.Snapshot()
	if v, _ := s1.Sub(Snapshot{}).Counter("probes"); v != 10 {
		t.Fatalf("first delta probes = %d, want 10", v)
	}
	c.Add(5)
	g.Set(9)
	d2 := r.Snapshot().Sub(s1)
	if v, _ := d2.Counter("probes"); v != 5 {
		t.Fatalf("second delta probes = %d, want 5", v)
	}
	if v, _ := d2.Gauge("ifaces"); v != 9 {
		t.Fatalf("delta gauge = %d, want current value 9", v)
	}
	if _, ok := d2.Counter("absent"); ok {
		t.Fatal("lookup of absent metric succeeded")
	}
}

func TestShardFlush(t *testing.T) {
	r := NewRegistry()
	s1 := r.NewShard()
	s2 := r.NewShard()
	c1 := s1.Counter("probes")
	c2 := s2.Counter("probes")
	h1 := s1.Histogram("rtt", []int64{100})
	c1.Add(7)
	c2.Inc()
	h1.Observe(50)
	h1.Observe(500)
	// Nothing visible before flush.
	if v, _ := r.Snapshot().Counter("probes"); v != 0 {
		t.Fatalf("pre-flush counter = %d, want 0", v)
	}
	s1.Flush()
	s2.Flush()
	if v, _ := r.Snapshot().Counter("probes"); v != 8 {
		t.Fatalf("post-flush counter = %d, want 8", v)
	}
	hv, _ := r.Snapshot().Histogram("rtt")
	if hv.Count != 2 || hv.Counts[0] != 1 || hv.Counts[1] != 1 {
		t.Fatalf("post-flush hist = %+v", hv)
	}
	// Flush is idempotent on zeroed state.
	s1.Flush()
	if v, _ := r.Snapshot().Counter("probes"); v != 8 {
		t.Fatalf("double flush changed counter: %d", v)
	}
}

func TestProgressRecordDedup(t *testing.T) {
	p := NewProgress(0, 10)
	p.Record(Sample{At: 5, Probes: 1})
	p.Record(Sample{At: 7, Probes: 1}) // same counters → dropped
	if s := p.Samples(); len(s) != 1 || s[0].At != 5 {
		t.Fatalf("dedup kept %+v, want the sample at 5", s)
	}
	// Merge reads the latest sample at or before each threshold, so a
	// sample with no threshold between it and the next is overwritten.
	p.Record(Sample{At: 8, Probes: 2})  // no threshold in [5, 8)
	p.Record(Sample{At: 10, Probes: 3}) // none in [8, 10) either
	p.Record(Sample{At: 12, Probes: 4}) // threshold 10 reads the sample at 10
	p.Record(Sample{At: 25, Probes: 5}) // threshold 20 reads the sample at 12
	var got []time.Duration
	for _, s := range p.Samples() {
		got = append(got, s.At)
	}
	if want := []time.Duration{10, 12, 25}; !slices.Equal(got, want) {
		t.Fatalf("samples at %v, want %v", got, want)
	}
}

func TestNextThreshold(t *testing.T) {
	p := NewProgress(100, 10)
	cases := []struct{ now, want time.Duration }{
		{100, 110}, {101, 110}, {109, 110}, {110, 120}, {119, 120},
	}
	for _, c := range cases {
		if got := p.NextThreshold(c.now); got != c.want {
			t.Fatalf("NextThreshold(%d) = %d, want %d", c.now, got, c.want)
		}
	}
}

// TestMergeShardInvariance splits one schedule of events across two
// recorders (with different epooch-relative activity windows) and checks
// the merged series equals the single-recorder evaluation — the unit-level
// version of the campaign byte-identity property.
func TestMergeShardInvariance(t *testing.T) {
	const step, end = 10, 50
	// Serial: one recorder sees all activity.
	serial := NewProgress(0, step)
	serial.Record(Sample{At: 8, Probes: 2, Replies: 1, TimeExceeded: 1})
	serial.Record(Sample{At: 23, Probes: 5, Replies: 2, TimeExceeded: 2})
	serial.Record(Sample{At: 41, Probes: 9, Replies: 4, TimeExceeded: 3, EchoReplies: 1})
	// Sharded: same totals split across two recorders with a shifted epoch
	// for shard 1 (its samples carry absolute stamps epoch+rel).
	a := NewProgress(0, step)
	a.Record(Sample{At: 8, Probes: 2, Replies: 1, TimeExceeded: 1})
	a.Record(Sample{At: 23, Probes: 3, Replies: 1, TimeExceeded: 1})
	a.Record(Sample{At: 41, Probes: 5, Replies: 2, TimeExceeded: 1, EchoReplies: 1})
	b := NewProgress(1000, step)
	b.Record(Sample{At: 1000 + 23, Probes: 2, Replies: 1, TimeExceeded: 1})
	b.Record(Sample{At: 1000 + 41, Probes: 4, Replies: 2, TimeExceeded: 2})
	first := []time.Duration{8, 23, 23, 41}
	got := Merge([]*Progress{a, b}, first, step, end)
	want := Merge([]*Progress{serial}, first, step, end)
	if len(got) != len(want) {
		t.Fatalf("len %d != %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("point %d: sharded %+v != serial %+v", i, got[i], want[i])
		}
	}
	// Thresholds 10,20,30,40 plus the end point 50.
	if len(got) != 5 || got[len(got)-1].At != end {
		t.Fatalf("thresholds wrong: %+v", got)
	}
	if got[0].Probes != 2 || got[0].Interfaces != 1 {
		t.Fatalf("t=10 point wrong: %+v", got[0])
	}
	if got[4].Probes != 9 || got[4].Interfaces != 4 {
		t.Fatalf("end point wrong: %+v", got[4])
	}
}

func TestWritePointsSchema(t *testing.T) {
	var buf bytes.Buffer
	pts := []Point{
		{At: 10 * time.Millisecond, Probes: 100, Replies: 40, TimeExceeded: 30, Interfaces: 12},
		{At: 20 * time.Millisecond, Probes: 200, Fills: 3, Replies: 80, TimeExceeded: 55, EchoReplies: 5, Interfaces: 17},
	}
	if err := WritePoints(&buf, pts); err != nil {
		t.Fatal(err)
	}
	want := `{"type":"sample","at_ns":10000000,"probes":100,"fills":0,"replies":40,"time_exceeded":30,"echo_replies":0,"dest_unreach":0,"tcp_rsts":0,"interfaces":12,"rate_pps":10000.0,"discovery_per_probe":0.120000}
{"type":"sample","at_ns":20000000,"probes":200,"fills":3,"replies":80,"time_exceeded":55,"echo_replies":5,"dest_unreach":0,"tcp_rsts":0,"interfaces":17,"rate_pps":10000.0,"discovery_per_probe":0.085000}
`
	if buf.String() != want {
		t.Fatalf("NDJSON mismatch:\ngot:  %q\nwant: %q", buf.String(), want)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("probes_total").Add(12)
	r.Gauge("interfaces").Set(4)
	h := r.Histogram("rtt_usec", []int64{100, 200})
	h.Observe(50)
	h.Observe(150)
	h.Observe(900)
	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE probes_total counter\nprobes_total 12\n",
		"# TYPE interfaces gauge\ninterfaces 4\n",
		"rtt_usec_bucket{le=\"100\"} 1\n",
		"rtt_usec_bucket{le=\"200\"} 2\n",
		"rtt_usec_bucket{le=\"+Inf\"} 3\n",
		"rtt_usec_sum 1100\nrtt_usec_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestHTTPEndpoint(t *testing.T) {
	r := NewRegistry()
	r.Counter("probes_total").Add(99)
	addr, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Skipf("listen: %v", err)
	}
	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + addr.String() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "probes_total 99") {
		t.Fatalf("/metrics: code %d body %q", code, body)
	}
	if code, body := get("/debug/vars"); code != 200 || !strings.Contains(body, "cmdline") {
		t.Fatalf("/debug/vars: code %d", code)
	} else {
		_ = body
	}
	if code, _ := get("/debug/pprof/"); code != 200 {
		t.Fatalf("/debug/pprof/: code %d", code)
	}
}

func TestShardAllocationFree(t *testing.T) {
	r := NewRegistry()
	s := r.NewShard()
	c := s.Counter("probes")
	h := s.Histogram("rtt", RTTBucketsUSec)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		h.Observe(1234)
	})
	if allocs != 0 {
		t.Fatalf("hot-path allocs = %v, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(100, func() { s.Flush() })
	if allocs != 0 {
		t.Fatalf("flush allocs = %v, want 0", allocs)
	}
}
