package netsim

import (
	"sync/atomic"
	"time"
)

// Clock is the simulator's virtual clock. Probers advance it by sleeping
// between packet departures (the pacing that converts a packets-per-second
// rate into inter-departure gaps); every time-dependent mechanism in the
// simulator — token-bucket refill, reply delivery, RTT timestamps — reads
// the same clock. A campaign that would take a day of wall time on the
// real Internet completes in however long the packet processing takes,
// with identical rate-limiting dynamics.
//
// Reads and writes are atomic so that a monitoring goroutine may observe
// a clock that another goroutine is advancing. Each clock still has a
// single logical owner: only the owning vantage calls Sleep.
type Clock struct {
	now int64 // virtual nanoseconds, accessed atomically
}

// NewClockAt returns a clock whose virtual time starts at t. Sharded
// campaigns use it to open each shard's clock at its permutation window
// start, so the union of shard schedules reproduces the single-prober
// schedule exactly.
func NewClockAt(t time.Duration) *Clock {
	c := &Clock{}
	atomic.StoreInt64(&c.now, int64(t))
	return c
}

// Now returns the current virtual time (duration since the epoch of the
// universe).
func (c *Clock) Now() time.Duration { return time.Duration(atomic.LoadInt64(&c.now)) }

// Sleep advances virtual time by d. Negative durations are ignored.
func (c *Clock) Sleep(d time.Duration) {
	if d > 0 {
		atomic.AddInt64(&c.now, int64(d))
	}
}

// reset rewinds the clock to zero; Universe.ResetState uses it between
// campaigns.
func (c *Clock) reset() { atomic.StoreInt64(&c.now, 0) }
