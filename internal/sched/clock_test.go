package sched

import (
	"slices"
	"sync"
	"time"
)

// fakeClock is a supervision clock that moves only when advanced. An
// advance hands every timer it fires to that timer's receiver before
// it returns, so the supervisor has taken each tick by then.
type fakeClock struct {
	mu     sync.Mutex
	armed  sync.Cond // broadcast whenever a timer is armed
	t      time.Time
	timers []*fakeTimer
}

type fakeTimer struct {
	at      time.Time
	c       chan time.Time
	stopped chan struct{}
	stop    sync.Once
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

func (c *fakeClock) timer(d time.Duration) (<-chan time.Time, func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ft := &fakeTimer{at: c.t.Add(d), c: make(chan time.Time), stopped: make(chan struct{})}
	c.timers = append(c.timers, ft)
	c.armed.Broadcast()
	return ft.c, func() {
		ft.stop.Do(func() {
			c.mu.Lock()
			c.timers = slices.DeleteFunc(c.timers, func(o *fakeTimer) bool { return o == ft })
			c.mu.Unlock()
			close(ft.stopped)
		})
	}
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
		case ft.c <- now:
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
