package netsim

import (
	"bytes"
	"encoding/binary"
	"math"
	"net/netip"
	"testing"
	"time"

	"beholder/internal/wire"
)

// FuzzImportSimState feeds arbitrary bytes to ImportSimState on a clone
// that already has born routers, whose buckets an accepted import
// rewrites in place. An import either rejects the bytes or leaves state
// that ExportSimState re-emits canonically — strictly ascending router
// keys, finite non-negative token levels, and bytes a fresh clone
// imports and re-exports unchanged — before and after a few more probes
// are routed through it (births from imported records included), none
// of which may panic.
func FuzzImportSimState(f *testing.F) {
	u := testUniverse(f)
	v := u.NewVantage(VantageSpec{Name: "fuzz-sim", Kind: KindUniversity, ChainLen: 3})
	targets := primeTargets(u, 8)
	drive := func(c *Vantage, dsts []netip.Addr) {
		for i, dst := range dsts {
			_ = c.Send(buildEchoProbe(c.LocalAddr(), dst, uint8(1+i%4)))
			c.Sleep(time.Millisecond)
		}
	}
	a := v.Clone(0)
	drive(a, targets)
	blob := a.ExportSimState(nil)
	f.Add(blob)
	f.Add(blob[:len(blob)-simStateEntrySize/2])
	// A refill instant at the clock's minimum: accepted, it would overflow
	// the next refill into a negative token level.
	early := bytes.Clone(blob)
	binary.LittleEndian.PutUint64(early[4+29:], 1<<63)
	f.Add(early)
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		c := v.Clone(0)
		drive(c, targets[:4])
		if c.ImportSimState(bytes.Clone(data)) != nil {
			return
		}
		canonical := func(when string) {
			out := c.ExportSimState(nil)
			n := int(binary.LittleEndian.Uint32(out))
			if len(out) != 4+n*simStateEntrySize {
				t.Fatalf("%s: export of %d bytes for %d records", when, len(out), n)
			}
			for i := 0; i < n; i++ {
				k, tokens, _ := simEntry(out[4:], i)
				if i > 0 {
					if prev, _, _ := simEntry(out[4:], i-1); simStateKeyCompare(prev, k) >= 0 {
						t.Fatalf("%s: record %d (%v) not above %v", when, i, k, prev)
					}
				}
				if math.IsNaN(tokens) || math.IsInf(tokens, 0) || tokens < 0 {
					t.Fatalf("%s: record %d has token level %v", when, i, tokens)
				}
			}
			fresh := v.Clone(0)
			if err := fresh.ImportSimState(bytes.Clone(out)); err != nil {
				t.Fatalf("%s: export does not re-import: %v", when, err)
			}
			if again := fresh.ExportSimState(nil); !bytes.Equal(again, out) {
				t.Fatalf("%s: export changes through an import", when)
			}
		}
		canonical("after import")
		drive(c, targets)
		canonical("after routing")
	})
}

// FuzzPrimeMatchesSend holds the prime replay to really sending: the
// input is a schedule of runs, five bytes each — target-pool index,
// transport, first hop limit, gap multiple and run length — a run being
// that many probes of the target's flow at consecutive hop limits, one
// gap apart, the next run departing one gap after its last probe. One
// clone sends the schedule; another registers each flow with PrimeFlow
// and replays every run in one PrimeRun call. Both must leave byte-equal
// ExportSimState. The pool is outcomePool's (every branch of the routing
// decision) and the gaps are short enough to drain buckets.
func FuzzPrimeMatchesSend(f *testing.F) {
	const (
		maxTTL  = 24
		baseGap = 20 * time.Microsecond
		maxRuns = 64
	)
	u := testUniverse(f)
	v := u.NewVantage(VantageSpec{Name: "fuzz-prime", Kind: KindUniversity, ChainLen: 3})
	var pool []netip.Addr
	for _, p := range outcomePool(f, u, v, 1, maxTTL) {
		pool = append(pool, p.dst)
	}
	protos := []uint8{wire.ProtoICMPv6, wire.ProtoUDP, wire.ProtoTCP}

	var every []byte // each pool target over each transport, one full traceroute
	for i := range pool {
		for tr := range protos {
			every = append(every, byte(i), byte(tr), 1, 0, maxTTL-1)
		}
	}
	f.Add(every)
	f.Add(bytes.Repeat([]byte{0, 0, 1, 0, 7}, maxRuns)) // one flow, saturated
	f.Add([]byte{3, 1, 30, 5, 2, 7, 2, 1, 0, 0})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		real, replay := v.Clone(0), v.Clone(0)
		replay.BeginPrime()
		toks := make(map[primeProbe]int)
		var run []int
		var ttls []uint8
		var at time.Duration
		for r := 0; r < maxRuns && len(data) >= 5; r, data = r+1, data[5:] {
			p := primeProbe{pool[int(data[0])%len(pool)], protos[int(data[1])%len(protos)]}
			ttl0 := 1 + data[2]%maxTTL
			gap := time.Duration(1+data[3]%16) * baseGap
			n := 1 + int(data[4]%maxTTL)
			tok, ok := toks[p]
			if !ok {
				var err error
				if tok, err = replay.PrimeFlow(p.build(replay.LocalAddr(), ttl0)); err != nil {
					t.Fatal(err)
				}
				toks[p] = tok
			}
			run, ttls = run[:0], ttls[:0]
			for i := range n {
				ttl := 1 + (ttl0-1+uint8(i))%maxTTL
				run, ttls = append(run, tok), append(ttls, ttl)
				_ = real.Send(p.build(real.LocalAddr(), ttl))
				real.Sleep(gap)
			}
			replay.PrimeRun(run, ttls, at, gap)
			at += time.Duration(n) * gap
		}
		replay.EndPrime()
		if real.Now() != at {
			t.Fatalf("real schedule ended at %v, replay at %v", real.Now(), at)
		}
		if !bytes.Equal(replay.ExportSimState(nil), real.ExportSimState(nil)) {
			t.Fatal("PrimeFlow/PrimeRun replay and real sends leave different bucket state")
		}
	})
}
