package gen6prob

import (
	"bytes"
	"net/netip"
	"testing"

	"beholder/internal/core"
	"beholder/internal/probe"
)

// twoRegionSeeds builds two equally-sized seed regions: eight observed
// /64s under 2001:db8:a::/48 and eight under 2001:db8:b::/48, each with
// the paper's low-byte ::1 interface.
func twoRegionSeeds() []netip.Addr {
	var seeds []netip.Addr
	for _, region := range []string{"a", "b"} {
		for x := 0; x < 8; x++ {
			seeds = append(seeds, netip.MustParseAddr(
				"2001:db8:"+region+":"+string(rune('0'+x))+"::1"))
		}
	}
	return seeds
}

func inPrefix(a netip.Addr, p string) bool {
	return netip.MustParsePrefix(p).Contains(a)
}

func TestDeterministicEpochs(t *testing.T) {
	seeds := twoRegionSeeds()
	cfg := Config{Key: 7}
	a, b := New(seeds, cfg), New(seeds, cfg)
	ba := a.NextEpoch(0, 8, nil)
	bb := b.NextEpoch(0, 8, nil)
	if len(ba) != 8 {
		t.Fatalf("epoch 0 produced %d targets, want 8", len(ba))
	}
	for i := range ba {
		if ba[i] != bb[i] {
			t.Fatalf("equal sources diverge at target %d: %v vs %v", i, ba[i], bb[i])
		}
	}
	seen := make(map[netip.Addr]struct{})
	for _, x := range ba {
		if _, dup := seen[x]; dup {
			t.Fatalf("duplicate target %v within one epoch", x)
		}
		seen[x] = struct{}{}
		u16 := x.As16()
		if u16[15] != 1 {
			t.Fatalf("candidate %v does not use the low-byte ::1 IID", x)
		}
	}
	c := New(seeds, Config{Key: 8})
	bc := c.NextEpoch(0, 8, nil)
	same := true
	for i := range ba {
		if i >= len(bc) || ba[i] != bc[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different keys generated the identical epoch series")
	}
}

// TestSpendExhaustsAndDedups: with both regions' /64 spaces fully
// observed (every combination of observed nybble values is a seed),
// the source emits each /64 exactly once and then runs dry — spend
// removes emitted leaves from the distribution and exploration has no
// fresh combination left to synthesize.
func TestSpendExhaustsAndDedups(t *testing.T) {
	seeds := twoRegionSeeds()
	s := New(seeds, Config{Key: 11})
	seen := make(map[netip.Addr]struct{})
	total := 0
	for epoch := 0; epoch < 10; epoch++ {
		batch := s.NextEpoch(epoch, 6, nil)
		if len(batch) == 0 {
			break
		}
		for _, a := range batch {
			if _, dup := seen[a]; dup {
				t.Fatalf("target %v emitted twice", a)
			}
			seen[a] = struct{}{}
		}
		total += len(batch)
	}
	if total != len(seeds) {
		t.Fatalf("emitted %d targets from a fully-observed space of %d /64s", total, len(seeds))
	}
	for _, a := range seeds {
		if _, ok := seen[a]; !ok {
			t.Errorf("observed /64 %v never emitted", a)
		}
	}
}

// TestExplorationGeneratesFreshPrefixes: seeds observing nybble values
// {1,2} at two positions cover only two of the four combinations; the
// sampler must synthesize the remaining combinations rather than stop
// at the seed set.
func TestExplorationGeneratesFreshPrefixes(t *testing.T) {
	seeds := []netip.Addr{
		netip.MustParseAddr("2001:db8:0:12::1"),
		netip.MustParseAddr("2001:db8:0:21::1"),
	}
	s := New(seeds, Config{Key: 5})
	seen := make(map[netip.Addr]struct{})
	for epoch := 0; epoch < 6; epoch++ {
		for _, a := range s.NextEpoch(epoch, 4, nil) {
			seen[a] = struct{}{}
		}
	}
	for _, want := range []string{"2001:db8:0:11::1", "2001:db8:0:22::1"} {
		if _, ok := seen[netip.MustParseAddr(want)]; !ok {
			t.Errorf("exploration never generated %s; emitted %v", want, seen)
		}
	}
	for a := range seen {
		if !inPrefix(a, "2001:db8::/48") {
			t.Errorf("generated %v outside the observed /48", a)
		}
	}
}

// TestRewardSteersSampling: a heavy novel-interface reward on one
// region must pull the next epoch's batch into that region even though
// both regions carry equal seed weight.
func TestRewardSteersSampling(t *testing.T) {
	seeds := twoRegionSeeds()
	s := New(seeds, Config{Key: 3, RewardWeight: 1 << 20})
	st := probe.NewStore(true)
	target := netip.MustParseAddr("2001:db8:a:3::1")
	for i := 0; i < 5; i++ {
		hop := netip.MustParseAddr("2400::1").Next()
		for j := 0; j < i; j++ {
			hop = hop.Next()
		}
		st.Add(probe.Reply{
			Kind: probe.KindTimeExceeded, From: hop, Target: target,
			TTL: uint8(i + 1), StateRecovered: true,
		})
	}
	fb := &core.Feedback{Epoch: 0, Store: st}
	batch := s.NextEpoch(1, 8, fb)
	inA := 0
	for _, a := range batch {
		if inPrefix(a, "2001:db8:a::/48") {
			inA++
		}
	}
	if inA < 6 {
		t.Fatalf("reward on region a steered only %d of %d targets there", inA, len(batch))
	}
}

// TestPruneKillsSubtree: an aliased verdict on a region's covering
// prefix removes the whole subtree from the distribution — including
// its exploration frontier — and pruning space never visited is a
// no-op rather than a panic.
func TestPruneKillsSubtree(t *testing.T) {
	var seedsA []netip.Addr
	for _, a := range twoRegionSeeds() {
		if inPrefix(a, "2001:db8:a::/48") {
			seedsA = append(seedsA, a)
		}
	}
	s := New(seedsA, Config{Key: 9})
	fb := &core.Feedback{Epoch: 0, Aliased: []netip.Prefix{
		netip.MustParsePrefix("2001:db8:a::/48"),
		netip.MustParsePrefix("fd00::/16"), // never visited: must no-op
	}}
	if batch := s.NextEpoch(1, 8, fb); len(batch) != 0 {
		t.Fatalf("pruned region still produced %d targets: %v", len(batch), batch)
	}
}

// TestStateRoundtrip: serialize mid-adaptation (after spends, a prune,
// and a reward), restore into a zero source — seeds and config come
// from the blob — and the two must generate identical series from there,
// and must never re-emit a pre-serialization target (the spent flags
// survive).
func TestStateRoundtrip(t *testing.T) {
	seeds := twoRegionSeeds()
	cfg := Config{Key: 21, RewardWeight: 4096}
	s := New(seeds, cfg)
	before := s.NextEpoch(0, 5, nil)

	st := probe.NewStore(true)
	st.Add(probe.Reply{
		Kind: probe.KindTimeExceeded, From: netip.MustParseAddr("2400::77"),
		Target: netip.MustParseAddr("2001:db8:b:2::1"), TTL: 3, StateRecovered: true,
	})
	fb := &core.Feedback{Epoch: 0, Store: st, Aliased: []netip.Prefix{
		netip.MustParsePrefix("2001:db8:a:1::/64"),
	}}
	before = append(before, s.NextEpoch(1, 3, fb)...)

	blob := s.AppendState(nil)
	var r Source
	if err := r.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	if again := r.AppendState(nil); string(again) != string(blob) {
		t.Fatal("restore followed by serialize is not byte-identical")
	}
	want := s.NextEpoch(2, 8, nil)
	got := r.NextEpoch(2, 8, nil)
	if len(want) != len(got) {
		t.Fatalf("post-restore epoch sizes differ: %d vs %d", len(want), len(got))
	}
	emitted := make(map[netip.Addr]struct{})
	for _, a := range before {
		emitted[a] = struct{}{}
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("post-restore series diverges at %d: %v vs %v", i, want[i], got[i])
		}
		if _, dup := emitted[want[i]]; dup {
			t.Fatalf("restored source re-emitted pre-serialization target %v", want[i])
		}
	}
}

func TestRestoreStateErrors(t *testing.T) {
	s := New(twoRegionSeeds(), Config{Key: 2})
	s.NextEpoch(0, 4, nil)
	blob := s.AppendState(nil)
	// A default field spelled out as zero, which would encode differently.
	zeroWeight := append([]byte(nil), blob...)
	clear(zeroWeight[len(stateMagic)+8 : len(stateMagic)+16])
	cases := map[string][]byte{
		"empty":         {},
		"bad magic":     []byte("G6PBxx" + string(blob[6:])),
		"retired magic": []byte("G6PB02" + string(blob[6:])),
		"truncated":     blob[:len(blob)-3],
		"trailing":      append(append([]byte(nil), blob...), 0xff),
		"non-canonical": zeroWeight,
	}
	for name, data := range cases {
		var r Source
		if err := r.RestoreState(data); err == nil {
			t.Errorf("%s state accepted", name)
		}
	}
}

func TestAliasCandidates(t *testing.T) {
	st := probe.NewStore(true)
	reach := func(a string) {
		st.Add(probe.Reply{Kind: probe.KindEchoReply, Target: netip.MustParseAddr(a),
			From: netip.MustParseAddr(a)})
	}
	reach("2001:db8:1:1::1")
	reach("2001:db8:1:1::2")
	reach("2001:db8:2:2::1")
	// Probed but never reached: must not be nominated.
	st.Add(probe.Reply{Kind: probe.KindTimeExceeded, From: netip.MustParseAddr("2400::9"),
		Target: netip.MustParseAddr("2001:db8:3:3::1"), TTL: 2, StateRecovered: true})

	candidates := func(k int) []netip.Prefix { return New(nil, Config{AliasMinHits: k}).AliasCandidates(st) }
	got := candidates(0) // the default: one hit
	if len(got) != 2 || got[0] != netip.MustParsePrefix("2001:db8:1:1::/64") ||
		got[1] != netip.MustParsePrefix("2001:db8:2:2::/64") {
		t.Fatalf("k=1 candidates = %v", got)
	}
	got = candidates(2)
	if len(got) != 1 || got[0] != netip.MustParsePrefix("2001:db8:1:1::/64") {
		t.Fatalf("k=2 candidates = %v", got)
	}
	if New(nil, Config{}).AliasCandidates(nil) != nil || candidates(-3) != nil {
		t.Fatal("degenerate inputs must nominate nothing")
	}
}

// FuzzRestoreState: arbitrary bytes either fail to restore, or restore
// into a zero Source whose AppendState gives the same bytes back — the
// encoding is canonical, so an artifact's source state round-trips
// exactly. The corpus comes from tools/gencorpus.
func FuzzRestoreState(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Source
		if err := s.RestoreState(data); err != nil {
			return
		}
		if got := s.AppendState(nil); !bytes.Equal(got, data) {
			t.Fatalf("restored state re-encodes to %d different bytes (input %d)", len(got), len(data))
		}
	})
}
