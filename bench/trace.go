package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one traced interval: a call into a layer, or the campaign
// that caused it. Start and End are nanoseconds of host time since the
// tracer was created; Parent is the ID of the causing span (0 for a
// root); every span of one campaign shares Campaign.
type span struct {
	ID       int    `json:"id"`
	Name     string `json:"name"`
	Start    int64  `json:"start"`
	End      int64  `json:"end"`
	Parent   int    `json:"parent"`
	Campaign int    `json:"campaign"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing and reads no clock, which is what the untraced replay that
// trace.overhead_share compares against runs with. Not safe for
// concurrent use: each goroutine that traces owns a tracer.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// now is host nanoseconds since the tracer was created.
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// emit records a span of the given start and length.
func (t *tracer) emit(name string, parent, campaign int, start, dur int64) {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Name: name, Parent: parent, Campaign: campaign,
		Start: start, End: start + dur,
	})
}

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent, campaign int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Name: name, Parent: parent, Campaign: campaign,
		Start: t.now(),
	})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id-1].End = t.now()
}

// add records a span whose boundaries were observed elsewhere (manifest
// frame instants, HTTP round trips).
func (t *tracer) add(name string, parent, campaign int, start, end time.Time) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Name: name, Parent: parent, Campaign: campaign,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	return len(t.spans)
}

// selfTimes sums, per span name, each span's duration minus the part of
// it its child spans cover. Children here never overlap one another
// (one goroutine opens and closes them in order), so the covered part
// is the plain sum of child durations.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.Parent] += s.End - s.Start
	}
	out := make(map[string]time.Duration)
	for _, s := range t.spans {
		out[s.Name] += time.Duration(s.End - s.Start - child[s.ID])
	}
	return out
}

// writeFile writes the spans as one JSON array.
func (t *tracer) writeFile(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
