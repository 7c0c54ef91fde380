package netsim

import (
	"runtime"
	"testing"
)

// raceEnabled is set by race_test.go in -race builds, whose
// instrumentation changes what allocation pins measure.
var raceEnabled bool

// TestRouterBirthAllocs bounds what a born router costs. 10 000
// backbone routers of the vantage's AS are numbered in the identity's
// registry, then born one by one on a fresh clone: a row each in the
// clone's chunks plus the clone's ordinal index. A row is 72 pointer-free
// bytes and a chunk holds up to 256 of them, so the births allocate once
// per chunk and about 78 bytes per router; a heap object per router
// (96 bytes, plus its shares of two pointer slices) allocated 10 014
// times and 124.6 bytes per router.
func TestRouterBirthAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not representative under -race")
	}
	const n = 10_000
	u := testUniverse(t)
	v := u.NewVantage(VantageSpec{Name: "births", Kind: KindUniversity, ChainLen: 3})
	hops := make([]planHop, n)
	for i := range hops {
		hops[i] = planHop{key: RouterKey{ASN: v.as.ASN, Class: classBackbone, K1: uint64(i), K2: 1}, as: int32(v.as.Idx)}
	}
	steps := make([]coreStep, n)
	v.reg.intern(hops, steps)
	c := v.Clone(0)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, st := range steps {
		c.router(st.ord, 0)
	}
	runtime.ReadMemStats(&after)

	born := 0
	for _, chunk := range c.rows {
		born += len(chunk)
	}
	if born != n {
		t.Fatalf("%d routers born, want %d", born, n)
	}
	if r := c.router(steps[n-1].ord, 0); r.key() != hops[n-1].key {
		t.Fatalf("ordinal %d resolves to %v, want %v", steps[n-1].ord, r.key(), hops[n-1].key)
	}
	mallocs := after.Mallocs - before.Mallocs
	perRouter := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("%d births: %d allocations (%d chunks), %.1f bytes per router", n, mallocs, len(c.rows), perRouter)
	if limit := uint64(2*len(c.rows) + 8); mallocs > limit {
		t.Errorf("%d births allocated %d times, want <= %d (O(chunks))", n, mallocs, limit)
	}
	if perRouter > 80 {
		t.Errorf("%.1f bytes allocated per born router, want <= 80", perRouter)
	}
}
