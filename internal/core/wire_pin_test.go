package core

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"testing"
	"time"

	"beholder/internal/netsim"
	"beholder/internal/probe"
)

// wireTap hashes the first limit probes a prober hands its connection,
// length-prefixed and in send order.
type wireTap struct {
	*netsim.Vantage
	h     hash.Hash
	seen  int
	limit int
}

func (w *wireTap) tap(pkt []byte) {
	if w.seen < w.limit {
		w.h.Write([]byte{byte(len(pkt))})
		w.h.Write(pkt)
		w.seen++
	}
}

func (w *wireTap) Send(pkt []byte) error {
	w.tap(pkt)
	return w.Vantage.Send(pkt)
}

func (w *wireTap) SendBatch(pkts [][]byte, gap time.Duration) (int, bool, error) {
	n, deliverable, err := w.Vantage.SendBatch(pkts, gap)
	for _, p := range pkts[:n] {
		w.tap(p)
	}
	return n, deliverable, err
}

// TestFirstWirePacketsPin holds the first 64 packets of a campaign, one
// per transport, to the bytes the template-cached codec put on the wire
// at the last commit that had one: whatever builds probes now must
// produce the same packets, not merely equivalent ones.
func TestFirstWirePacketsPin(t *testing.T) {
	want := map[uint8]string{
		58: "3658229b5f83e4186bc1927b4e3926a245751376da5ebd15372a6066a074385d", // ICMPv6
		17: "d8826a23bc97f074d7d3cc2b217c8a15173394393def1e61c43b77caeb1f8ad4", // UDP
		6:  "c85fabb5db12fbd03f769f2ed27363bc2bc65fc7d5a72293eb07cafce7f1b11c", // TCP
	}
	for proto, digest := range want {
		u, v := testVantage(t, 5)
		tap := &wireTap{Vantage: v, h: sha256.New(), limit: 64}
		cfg := Config{Targets: gatewayTargets(u, 40, 5), PPS: 2000, MaxTTL: 12, Key: 3, Proto: proto, Instance: 9, Fill: true}
		if _, err := New(tap, cfg).Run(probe.NewStore(false)); err != nil {
			t.Fatal(err)
		}
		if tap.seen != tap.limit {
			t.Fatalf("proto %d: tapped %d packets, want %d", proto, tap.seen, tap.limit)
		}
		if got := hex.EncodeToString(tap.h.Sum(nil)); got != digest {
			t.Errorf("proto %d: first %d wire packets digest %s, want %s", proto, tap.limit, got, digest)
		}
	}
}
