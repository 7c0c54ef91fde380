package netsim

import (
	"bytes"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"beholder/internal/ipv6"
	"beholder/internal/probe"
	"beholder/internal/wire"
)

// batchRec is one reply a drive received: its delivery instant and bytes.
type batchRec struct {
	at time.Duration
	b  []byte
}

// remainder says how a batched drive hands SendBatch the unsent rest of
// a run after the call stopped early.
type remainder int

const (
	// continueSlice passes the rest of the same slice: the call
	// continues the previous one and reuses its gather.
	continueSlice remainder = iota
	// freshSlice passes a copy of the rest: a call that does not
	// continue the previous one, so it gathers afresh.
	freshSlice
	// rewriteNext rewrites the next unsent packet in place — same slice
	// element, another destination — before continuing, so the reused
	// gather describes a packet that is no longer there.
	rewriteNext
)

// TestSendBatchMatchesSerial drives two clones of one vantage through
// the same probe schedule — one with the serial Send/Sleep/Recv
// contract, one with SendBatch/RecvBatch — and requires identical reply
// bytes at identical virtual instants and identical VantageStats, every
// counter. This is the netsim half of the batching invariant: batch size
// changes dispatch, never the schedule. The drives cover how a batched
// caller continues after an early stop, and every kind of plan table a
// gather can meet: growing, evicting at a tiny cap, and none.
func TestSendBatchMatchesSerial(t *testing.T) {
	fresh := func(v *Vantage) { v.plans = newPlanTable(planTableMinSlots, planTableMaxSlots) }
	drives := []struct {
		name  string
		table func(v *Vantage)
		rest  remainder
	}{
		{"continue", fresh, continueSlice},
		{"fresh-slice", fresh, freshSlice},
		{"rewrite-remainder", fresh, rewriteNext},
		{"growing-table", func(v *Vantage) { v.plans = newPlanTable(4, planTableMaxSlots) }, rewriteNext},
		{"evicting-table", func(v *Vantage) { v.plans = newPlanTable(16, 16) }, rewriteNext},
		{"suspended-table", func(v *Vantage) { v.SuspendPlanCache() }, rewriteNext},
	}
	for _, d := range drives {
		t.Run(d.name, func(t *testing.T) {
			u := testUniverse(t)
			parent := u.NewVantage(VantageSpec{Name: "batch-eq", Kind: KindUniversity, ChainLen: 4})
			serialV := parent.Clone(0)
			batchV := parent.Clone(0)
			// Each drive starts from its own identical table, so the
			// plan counters of the two are comparable.
			d.table(serialV)
			d.table(batchV)

			batched, sent := batchedDrive(t, u, batchV, d.rest)
			serial := serialDrive(t, serialV, sent)
			if len(serial) == 0 {
				t.Fatal("serial drive saw no replies")
			}
			if len(batched) != len(serial) {
				t.Fatalf("reply counts differ: serial %d, batched %d", len(serial), len(batched))
			}
			for i := range serial {
				if serial[i].at != batched[i].at {
					t.Fatalf("reply %d delivered at %v serially but %v batched", i, serial[i].at, batched[i].at)
				}
				if !bytes.Equal(serial[i].b, batched[i].b) {
					t.Fatalf("reply %d bytes differ between serial and batched drives", i)
				}
			}
			if serialV.Stats != batchV.Stats {
				t.Fatalf("vantage stats differ: serial %+v, batched %+v", serialV.Stats, batchV.Stats)
			}
			if d.name == "evicting-table" && batchV.Stats.PlanEvictions == 0 {
				t.Fatal("the tiny table evicted nothing")
			}
			if at, ok := batchV.NextDeliveryAt(); ok {
				t.Fatalf("batched drive left a reply pending, due at %v", at)
			}
		})
	}
}

// batchedDrive sends the schedule — gateway targets at four hop limits,
// every target at one hop limit before the next, twice over, so later
// batches meet published plans — through SendBatch in uneven runs,
// draining with RecvBatch and jumping across the quiet tail with
// NextDeliveryAt. It returns the replies and the packets as they were
// sent, rewrites included.
func batchedDrive(t *testing.T, u *Universe, v *Vantage, rest remainder) (got []batchRec, sent [][]byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	gap := 500 * time.Microsecond
	codec := probe.NewCodec(v, wire.ProtoICMPv6, 1)
	var dsts []netip.Addr
	for i := 0; i < 24; i++ {
		as := u.RandomAS(rng, KindHosting)
		if lan, ok := u.RandomLAN(rng, as); ok {
			dsts = append(dsts, u.GatewayAddr(lan, as))
		}
	}
	var pkts [][]byte
	for round := 0; round < 2; round++ {
		for ttl := uint8(1); ttl <= 10; ttl += 3 {
			for _, dst := range dsts {
				buf := make([]byte, 128)
				n := codec.BuildProbeAt(buf, dst, ttl, time.Duration(len(pkts))*gap)
				pkts = append(pkts, buf[:n])
			}
		}
	}
	if len(pkts) < 80 {
		t.Fatalf("only %d probes built", len(pkts))
	}

	rb := make([]byte, 8*wire.MinMTU)
	rs := make([]int, 8)
	drain := func() {
		for {
			n := v.RecvBatch(rb, rs)
			if n == 0 {
				return
			}
			off := 0
			for i := 0; i < n; i++ {
				got = append(got, batchRec{v.Now(), append([]byte(nil), rb[off:off+rs[i]]...)})
				off += rs[i]
			}
			if n < len(rs) {
				return
			}
		}
	}
	sizes := []int{1, 7, 3, 16, 5, 64}
	done, rewrites := 0, 0
	for si := 0; done < len(pkts); si++ {
		k := min(sizes[si%len(sizes)], len(pkts)-done)
		run := pkts[done : done+k]
		for len(run) > 0 {
			m, deliverable, err := v.SendBatch(run, gap)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range run[:m] {
				sent = append(sent, append([]byte(nil), p...))
			}
			done += m
			run = run[m:]
			if deliverable {
				drain()
			}
			if len(run) == 0 {
				break
			}
			switch rest {
			case freshSlice:
				run = append([][]byte(nil), run...)
			case rewriteNext:
				p := run[0]
				next := dsts[(rewrites*7+1)%len(dsts)]
				if next == netip.AddrFrom16([16]byte(p[24:40])) {
					next = dsts[(rewrites*7+2)%len(dsts)]
				}
				run[0] = p[:codec.BuildProbeAt(p[:cap(p)], next, p[7], v.Now())]
				rewrites++
			}
		}
	}
	if rest == rewriteNext && rewrites == 0 {
		t.Fatal("no call stopped early; nothing was rewritten")
	}
	deadline := v.Now() + 4000*gap
	for v.Now() < deadline {
		steps := int64(1)
		kmax := int64((deadline - v.Now() + gap - 1) / gap)
		if at, ok := v.NextDeliveryAt(); !ok {
			steps = kmax
		} else if at > v.Now() {
			steps = min(int64((at-v.Now()+gap-1)/gap), kmax)
		}
		v.Sleep(time.Duration(steps) * gap)
		drain()
	}
	v.FlushStats()
	return got, sent
}

// serialDrive sends pkts one Send/Sleep/Recv step at a time, then idles
// through the same quiet tail, and returns the replies.
func serialDrive(t *testing.T, v *Vantage, pkts [][]byte) (got []batchRec) {
	t.Helper()
	gap := 500 * time.Microsecond
	rbuf := make([]byte, wire.MinMTU)
	drain := func() {
		for {
			n, ok := v.Recv(rbuf)
			if !ok {
				return
			}
			got = append(got, batchRec{v.Now(), append([]byte(nil), rbuf[:n]...)})
		}
	}
	for _, p := range pkts {
		if err := v.Send(p); err != nil {
			t.Fatal(err)
		}
		v.Sleep(gap)
		drain()
	}
	for i := 0; i < 4000; i++ {
		v.Sleep(gap)
		drain()
	}
	return got
}

// TestHeaderKeyMatchesDecode: the gather reads a probe's destination and
// flow key straight from its header bytes; for every transport they must
// be what the routing pass derives from the decoded probe, or gathered
// cores would never match.
func TestHeaderKeyMatchesDecode(t *testing.T) {
	u := testUniverse(t)
	v := u.NewVantage(VantageSpec{Name: "header-key", Kind: KindUniversity})
	dst := netip.MustParseAddr("2001:db8:1234:5678::9")
	for _, proto := range []uint8{wire.ProtoICMPv6, wire.ProtoUDP, wire.ProtoTCP} {
		codec := probe.NewCodec(v, proto, 3)
		buf := make([]byte, 128)
		pkt := buf[:codec.BuildProbeAt(buf, dst, 7, 5*time.Millisecond)]
		var d wire.Decoded
		if err := d.Decode(pkt); err != nil {
			t.Fatal(err)
		}
		gotDst, gotKey := headerKey(pkt)
		if gotDst != ipv6.FromAddr(d.IPv6.Dst) || gotKey != flowKeyOf(&d) {
			t.Errorf("proto %d: header key (%v, %#x), decoded (%v, %#x)", proto, gotDst, gotKey, ipv6.FromAddr(d.IPv6.Dst), flowKeyOf(&d))
		}
	}
}
