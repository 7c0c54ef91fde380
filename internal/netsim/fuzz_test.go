package netsim

import (
	"bytes"
	"encoding/binary"
	"math"
	"net/netip"
	"testing"
	"time"
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
		v.BeginShardGroup() // keep the parent's clock group from growing per input
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
