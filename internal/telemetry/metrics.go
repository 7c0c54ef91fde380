// Package telemetry is the campaign observability layer: a zero/near-zero
// allocation metrics core (atomic counters, gauges, fixed-bucket
// histograms), per-shard views that fold into campaign-level snapshots
// with the same delta-flush discipline the simulator uses for per-vantage
// stat batching, a deterministic virtual-time progress stream, and an
// opt-in HTTP endpoint serving expvar/Prometheus text plus pprof.
//
// Two disciplines keep telemetry off the packet fast path:
//
//   - Hot-path code never touches shared atomics per event. Each prober
//     shard increments plain int64 fields through a Shard view and
//     flushes them into the Registry's atomics at progress-sample
//     crossings and at run end.
//
//   - Everything observable is deterministic in virtual time. Progress
//     samples are taken when the shard's virtual clock crosses
//     virtual-time thresholds (never wall clock), so the merged stream is
//     byte-identical at any shard count and batch size; see progress.go.
package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. Like Gauge.Set
// and Histogram.Observe, its writes swallow a nil receiver, so a
// component built without a registry keeps nil instruments and never
// branches on them.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomically settable instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram. Bounds are inclusive upper
// bucket edges in ascending order; one implicit overflow bucket catches
// everything above the last bound. Observations update atomics, so a
// histogram may be shared — but hot paths should observe through a
// Shard-local view (LocalHist) and flush in batches.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1; last is the overflow bucket
	sum    atomic.Int64
	count  atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.counts[bucketOf(h.bounds, v)].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// add folds a batch of per-bucket counts (the Shard flush path).
func (h *Histogram) add(counts []int64, sum, count int64) {
	for i, n := range counts {
		if n != 0 {
			h.counts[i].Add(n)
		}
	}
	if sum != 0 {
		h.sum.Add(sum)
	}
	if count != 0 {
		h.count.Add(count)
	}
}

// bucketOf returns the bucket index for v: the first bound >= v, or the
// overflow bucket. Bounds lists are short (≤ ~16), so a linear scan beats
// binary search on branch prediction.
func bucketOf(bounds []int64, v int64) int {
	for i, b := range bounds {
		if v <= b {
			return i
		}
	}
	return len(bounds)
}

// Default bucket bounds for the prober's three hot-path distributions.
var (
	// RTTBucketsUSec buckets reply round-trip times in microseconds.
	RTTBucketsUSec = []int64{500, 1000, 2000, 5000, 10000, 20000, 50000, 100000, 200000, 500000}
	// BatchFillBuckets buckets per-dispatch send-run lengths in probes.
	BatchFillBuckets = []int64{1, 2, 4, 8, 16, 32, 64, 128}
	// DrainGapBuckets buckets drain-tail fast-forward jumps in gap slots.
	DrainGapBuckets = []int64{1, 2, 4, 16, 64, 256, 1024, 4096}
)

// Registry is a named-metric store: the campaign-level aggregation point
// shard views flush into and snapshots read from. Metric creation takes a
// lock; the returned handles are lock-free.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram. The bounds
// of the first creation win; callers must use consistent bounds per name.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		b := make([]int64, len(bounds))
		copy(b, bounds)
		h = &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
		r.hists[name] = h
	}
	return h
}

// Snapshot captures every metric, sorted by name — a deterministic,
// self-contained value safe to retain after the registry moves on.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	var s Snapshot
	s.Counters = make([]MetricValue, 0, len(r.counters))
	for name, c := range r.counters {
		s.Counters = append(s.Counters, MetricValue{Name: name, Value: c.Value()})
	}
	s.Gauges = make([]MetricValue, 0, len(r.gauges))
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, MetricValue{Name: name, Value: g.Value()})
	}
	s.Histograms = make([]HistogramValue, 0, len(r.hists))
	for name, h := range r.hists {
		hv := HistogramValue{Name: name, Bounds: h.bounds, Counts: make([]int64, len(h.counts))}
		for i := range h.counts {
			hv.Counts[i] = h.counts[i].Load()
		}
		hv.Sum = h.sum.Load()
		hv.Count = h.count.Load()
		s.Histograms = append(s.Histograms, hv)
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// Shard is a single goroutine's local view of a registry: counters and
// histograms accumulate in plain (non-atomic) fields and fold into the
// shared atomics only at Flush. One shard belongs to one goroutine; the
// registry handles it flushes into are shared and lock-free.
type Shard struct {
	reg    *Registry
	locals []*Local
	lhists []*LocalHist
}

// NewShard creates a shard-local view of the registry.
func (r *Registry) NewShard() *Shard { return &Shard{reg: r} }

// Local is a shard-local counter: plain increments, folded into the
// shared Counter at Shard.Flush.
type Local struct {
	n int64
	c *Counter
}

// Inc increments the local count by one.
func (l *Local) Inc() { l.n++ }

// Add increments the local count by n.
func (l *Local) Add(n int64) { l.n += n }

// LocalHist is a shard-local histogram view.
type LocalHist struct {
	counts []int64
	sum    int64
	n      int64
	bounds []int64
	h      *Histogram
}

// Observe records one value locally.
func (lh *LocalHist) Observe(v int64) {
	lh.counts[bucketOf(lh.bounds, v)]++
	lh.sum += v
	lh.n++
}

// Counter returns (creating if needed) this shard's local view of the
// named registry counter.
func (s *Shard) Counter(name string) *Local {
	l := &Local{c: s.reg.Counter(name)}
	s.locals = append(s.locals, l)
	return l
}

// Histogram returns (creating if needed) this shard's local view of the
// named registry histogram.
func (s *Shard) Histogram(name string, bounds []int64) *LocalHist {
	h := s.reg.Histogram(name, bounds)
	lh := &LocalHist{counts: make([]int64, len(h.bounds)+1), bounds: h.bounds, h: h}
	s.lhists = append(s.lhists, lh)
	return lh
}

// Flush folds every pending local count into the shared registry and
// zeroes the local state. Call it at batch boundaries (progress samples,
// run end) — never per event.
func (s *Shard) Flush() {
	for _, l := range s.locals {
		if l.n != 0 {
			l.c.Add(l.n)
			l.n = 0
		}
	}
	for _, lh := range s.lhists {
		if lh.n != 0 {
			lh.h.add(lh.counts, lh.sum, lh.n)
			for i := range lh.counts {
				lh.counts[i] = 0
			}
			lh.sum, lh.n = 0, 0
		}
	}
}
