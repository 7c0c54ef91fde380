package core

import (
	"bytes"
	"net/netip"
	"testing"
	"time"

	"beholder/internal/netsim"
	"beholder/internal/probe"
)

// probeTap keeps the first probe a prober sends per (destination, hop
// limit), so a test can ask the simulator for that probe's true path.
type probeTap struct {
	*netsim.Vantage
	sent map[probeAt][]byte
}

type probeAt struct {
	dst netip.Addr
	ttl uint8
}

func (p *probeTap) record(pkt []byte) {
	k := probeAt{dst: netip.AddrFrom16([16]byte(pkt[24:40])), ttl: pkt[7]}
	if _, ok := p.sent[k]; !ok {
		p.sent[k] = bytes.Clone(pkt)
	}
}

func (p *probeTap) Send(pkt []byte) error {
	p.record(pkt)
	return p.Vantage.Send(pkt)
}

func (p *probeTap) SendBatch(pkts [][]byte, gap time.Duration) (int, bool, error) {
	n, deliverable, err := p.Vantage.SendBatch(pkts, gap)
	for _, pkt := range pkts[:n] {
		p.record(pkt)
	}
	return n, deliverable, err
}

// TestStoredHopsMatchTruthPath checks a fault-free campaign on the small
// universe against the simulator's ground truth: every hop the store
// holds at TTL t is the router TruthPath puts at position t-1 of the
// path of the probe sent to that target with hop limit t. Only Time
// Exceeded replies become hops, so a hop names the router where the
// probe expired.
func TestStoredHopsMatchTruthPath(t *testing.T) {
	u, v := testVantage(t, 5)
	tap := &probeTap{Vantage: v, sent: make(map[probeAt][]byte)}
	cfg := Config{Targets: gatewayTargets(u, 60, 5), PPS: 2000, MaxTTL: 16, Key: 3, Fill: true}
	st := probe.NewStore(true)
	if _, err := New(tap, cfg).Run(st); err != nil {
		t.Fatal(err)
	}
	tab := st.AddrTable()
	hops, traces := 0, 0
	for _, target := range cfg.Targets {
		tr := st.Trace(target)
		if tr == nil {
			continue
		}
		traces++
		st.ForEachHop(tr, func(ttl uint8, id uint32) {
			hops++
			pkt := tap.sent[probeAt{target, ttl}]
			if pkt == nil {
				t.Errorf("%s: hop at TTL %d, but no probe was sent with that hop limit", target, ttl)
				return
			}
			path := v.TruthPath(pkt)
			if int(ttl) > len(path) {
				t.Errorf("%s: hop at TTL %d beyond the %d-router true path", target, ttl, len(path))
				return
			}
			if got, want := tab.Addr(id), path[ttl-1]; got != want {
				t.Errorf("%s: hop at TTL %d is %s, the true path has %s", target, ttl, got, want)
			}
		})
	}
	t.Logf("%d hops over %d traces of %d targets", hops, traces, len(cfg.Targets))
	if int64(hops) > st.TimeExceeded {
		t.Errorf("%d stored hops from %d Time Exceeded replies", hops, st.TimeExceeded)
	}
	if hops < 10*traces || traces < len(cfg.Targets)/2 {
		t.Fatalf("checked only %d hops over %d traces of %d targets", hops, traces, len(cfg.Targets))
	}
}
