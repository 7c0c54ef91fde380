package sched

import (
	"slices"
	"sync"
	"time"
)

// fakeClock is a supervision clock that moves only when advanced. An
// advance hands every timer it fires to that timer's receiver before
// it returns, so the supervisor has taken each tick by then. A timer
// that fired is disarmed until its receiver resets it.
type fakeClock struct {
	mu     sync.Mutex
	armed  sync.Cond // broadcast whenever a timer is armed
	t      time.Time
	timers []*fakeTimer // armed timers
	made   int          // timers created
	fired  int          // times delivered to a receiver
}

type fakeTimer struct {
	clk      *fakeClock
	at       time.Time
	ch       chan time.Time
	stopped  chan struct{}
	stopOnce sync.Once
}

func newFakeClock() *fakeClock {
	c := &fakeClock{t: time.Unix(0, 0)}
	c.armed.L = &c.mu
	return c
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) timer(d time.Duration) timer {
	ft := &fakeTimer{clk: c, ch: make(chan time.Time), stopped: make(chan struct{})}
	c.mu.Lock()
	c.made++
	c.mu.Unlock()
	ft.reset(d)
	return ft
}

func (ft *fakeTimer) c() <-chan time.Time { return ft.ch }

func (ft *fakeTimer) reset(d time.Duration) {
	c := ft.clk
	c.mu.Lock()
	defer c.mu.Unlock()
	ft.at = c.t.Add(d)
	if !slices.Contains(c.timers, ft) {
		c.timers = append(c.timers, ft)
	}
	c.armed.Broadcast()
}

func (ft *fakeTimer) stop() {
	ft.stopOnce.Do(func() {
		c := ft.clk
		c.mu.Lock()
		c.timers = slices.DeleteFunc(c.timers, func(o *fakeTimer) bool { return o == ft })
		c.mu.Unlock()
		close(ft.stopped)
	})
}

// counts returns how many timers were created and how many times were
// delivered.
func (c *fakeClock) counts() (made, fired int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.made, c.fired
}

// advance moves the clock on by d and delivers every timer now due,
// each to its receiver (or to its stop).
func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	now := c.t
	var due []*fakeTimer
	c.timers = slices.DeleteFunc(c.timers, func(ft *fakeTimer) bool {
		if ft.at.After(now) {
			return false
		}
		due = append(due, ft)
		return true
	})
	c.mu.Unlock()
	for _, ft := range due {
		select {
		case ft.ch <- now:
			c.mu.Lock()
			c.fired++
			c.mu.Unlock()
		case <-ft.stopped:
		}
	}
}

// blockUntil waits until at least n timers are armed.
func (c *fakeClock) blockUntil(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.timers) < n {
		c.armed.Wait()
	}
}
