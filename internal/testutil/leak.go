// Package testutil holds helpers shared across the repo's test suites.
package testutil

import (
	"runtime"
	"testing"
	"time"
)

// NoGoroutineLeaks registers a cleanup that fails the test when it ends
// with more goroutines than it started with. Campaign runs spawn shard
// probers and their restarts, bucket primers, and supervisor
// workers; all of them must exit by the time the orchestrating call
// returns, so a residue here is a real leak, not test noise. The check
// polls briefly before judging, because exiting goroutines can still be
// winding down when the test body returns.
//
// Call it first in the test (cleanups run LIFO, so the count check runs
// after every later cleanup has torn its resources down). Do not use it
// in tests that intentionally start process-lifetime goroutines, such
// as HTTP servers without shutdown.
func NoGoroutineLeaks(t testing.TB) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			runtime.Gosched()
			time.Sleep(10 * time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("goroutine leak: %d goroutines before, %d after", before, after)
		}
	})
}
