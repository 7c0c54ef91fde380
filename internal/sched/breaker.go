package sched

import (
	"sync"
	"time"
)

// BreakerState is a vantage circuit breaker's position.
type BreakerState uint8

const (
	// BreakerClosed admits campaigns normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen rejects campaigns on the vantage until the cooldown
	// elapses.
	BreakerOpen
	// BreakerHalfOpen admits one trial campaign; its outcome decides
	// whether the breaker closes again or re-opens.
	BreakerHalfOpen
)

// String names the state for status reports and stream events.
func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "closed"
}

// breakerSet is the per-vantage circuit breaker bank. A vantage whose
// campaigns keep failing — watchdog exhaustion, fatal run errors,
// quarantine-degraded completions — trips after breakerThreshold
// consecutive failures; while open, new campaigns on it are rejected at
// admission and queued ones degrade to Incomplete at dispatch, so one
// faulty vantage cannot wedge the whole service behind retry storms.
// After breakerCooldown on the supervision clock the breaker half-opens
// and admits one trial: success closes it, failure re-opens it
// (restarting the cooldown).
type breakerSet struct {
	mu    sync.Mutex
	clock clock
	m     map[string]*breakerEntry
}

type breakerEntry struct {
	fails    int
	open     bool
	probing  bool // half-open trial in flight
	openedAt time.Time
}

func newBreakerSet(clk clock) *breakerSet {
	return &breakerSet{clock: clk, m: make(map[string]*breakerEntry)}
}

// cooling reports whether an open breaker is still inside its cooldown.
func (b *breakerSet) cooling(e *breakerEntry) bool {
	return b.clock.now().Sub(e.openedAt) < breakerCooldown
}

// state reports the breaker's current position for one vantage.
func (b *breakerSet) state(vantage string) BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.m[vantage]
	switch {
	case e == nil || !e.open:
		return BreakerClosed
	case b.cooling(e):
		return BreakerOpen
	}
	return BreakerHalfOpen
}

// admit reports whether a campaign on the vantage may proceed, claiming
// the half-open trial slot when the cooldown has elapsed.
func (b *breakerSet) admit(vantage string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.m[vantage]
	if e == nil || !e.open {
		return true
	}
	if b.cooling(e) {
		return false
	}
	// Half-open: exactly one trial campaign at a time.
	if e.probing {
		return false
	}
	e.probing = true
	return true
}

// success records a clean campaign completion, closing the breaker.
func (b *breakerSet) success(vantage string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if e := b.m[vantage]; e != nil {
		e.fails, e.open, e.probing = 0, false, false
	}
}

// failure records a campaign failure; the return value reports whether
// this failure tripped (or re-tripped) the breaker open.
func (b *breakerSet) failure(vantage string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.m[vantage]
	if e == nil {
		e = &breakerEntry{}
		b.m[vantage] = e
	}
	e.fails++
	if e.open && e.probing {
		// Failed half-open trial: straight back to open.
		e.probing = false
		e.openedAt = b.clock.now()
		return true
	}
	if !e.open && e.fails >= breakerThreshold {
		e.open = true
		e.openedAt = b.clock.now()
		return true
	}
	return false
}
