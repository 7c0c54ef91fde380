package ipv6

import (
	"math/rand"
	"net/netip"
	"testing"
)

// tableInputs draws address streams that are hard on an open-addressed
// table keyed by two words: uniformly random addresses, runs of
// sequential interface identifiers under one prefix, addresses equal in
// their low 64 bits, addresses equal in their high 64 bits, the all-zero
// address — each with repeats mixed in.
func tableInputs(rng *rand.Rand, n int) []netip.Addr {
	out := make([]netip.Addr, 0, n)
	base := U128{Hi: rng.Uint64(), Lo: rng.Uint64()}
	for len(out) < n {
		var a U128
		switch rng.Intn(6) {
		case 0:
			a = U128{Hi: rng.Uint64(), Lo: rng.Uint64()}
		case 1:
			a = base.Add64(uint64(rng.Intn(n))) // sequential IIDs
		case 2:
			a = U128{Hi: base.Hi + uint64(rng.Intn(n))<<rng.Intn(40), Lo: base.Lo} // same low half
		case 3:
			a = U128{Hi: base.Hi, Lo: rng.Uint64() << rng.Intn(64)} // same high half, sparse low bits
		case 4:
			a = U128{} // "::"
		case 5:
			if len(out) > 0 {
				a = FromAddr(out[rng.Intn(len(out))]) // a repeat
			}
		}
		out = append(out, a.Addr())
	}
	return out
}

// TestTableMatchesMap holds Table to a map[netip.Addr]uint32 reference:
// ids are dense and handed out in first-seen order, a repeat returns the
// id and owner word of the first sighting, Find agrees with Intern and
// reports strangers absent, and every id, address and owner word survives
// the doublings the stream forces — from an unsized table and from one
// sized for the whole stream, which must not grow at all.
func TestTableMatchesMap(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		in := tableInputs(rng, 200+rng.Intn(5000))
		for _, sized := range []bool{false, true} {
			tab := NewTable(0)
			if sized {
				tab = NewTable(len(in))
			}
			slots0 := tab.Slots()
			ref := make(map[netip.Addr]uint32)
			var order []netip.Addr
			for i, a := range in {
				if i%64 == 0 {
					stranger := U128{Hi: ^uint64(trial), Lo: uint64(i) | 1<<63}.Addr()
					if _, known := ref[stranger]; !known {
						if _, _, ok := tab.Find(stranger); ok {
							t.Fatalf("trial %d: Find reports %s present", trial, stranger)
						}
					}
				}
				id, w := tab.Intern(a)
				want, seen := ref[a]
				if !seen {
					want = uint32(len(ref))
					ref[a] = want
					order = append(order, a)
					if *w != 0 {
						t.Fatalf("trial %d: new address %s arrives with owner word %#x", trial, a, *w)
					}
					*w = want ^ 0xa5a5a5a5
				}
				if id != want || *w != want^0xa5a5a5a5 {
					t.Fatalf("trial %d input %d (%s): id %d word %#x, want id %d word %#x", trial, i, a, id, *w, want, want^0xa5a5a5a5)
				}
			}
			if tab.Len() != len(ref) || tab.Slots() < tab.Len() {
				t.Fatalf("trial %d: Len %d Slots %d for %d distinct addresses", trial, tab.Len(), tab.Slots(), len(ref))
			}
			if sized && tab.Slots() != slots0 {
				t.Fatalf("trial %d: table sized for %d addresses grew from %d to %d slots", trial, len(in), slots0, tab.Slots())
			}
			if !sized && len(ref) > 100 && tab.Slots() < 8*minTableSlots {
				t.Fatalf("trial %d: %d addresses never forced three doublings", trial, len(ref))
			}
			for id, a := range order {
				got, w := tab.Addr(uint32(id)), tab.Word(uint32(id))
				fid, fw, ok := tab.Find(a)
				if got != a || w != uint32(id)^0xa5a5a5a5 || !ok || fid != uint32(id) || fw != w {
					t.Fatalf("trial %d: id %d reads back as %s word %#x (Find: id %d word %#x ok %v), want %s", trial, id, got, w, fid, fw, ok, a)
				}
			}
		}
	}
}

// TestTableCloneIsIndependent: a clone answers as the original did, and
// neither sees what the other interns or writes afterwards.
func TestTableCloneIsIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in := tableInputs(rng, 3000)
	tab := NewTable(0)
	for _, a := range in[:2000] {
		_, w := tab.Intern(a)
		*w = 1
	}
	cl := tab.Clone()
	n := tab.Len()
	for _, a := range in[2000:] { // grows the original past the clone
		_, w := tab.Intern(a)
		*w = 2
	}
	if cl.Len() != n {
		t.Fatalf("clone grew with the original: %d -> %d", n, cl.Len())
	}
	for id := 0; id < n; id++ {
		a, w := cl.Addr(uint32(id)), cl.Word(uint32(id))
		oa := tab.Addr(uint32(id))
		if a != oa || w != 1 {
			t.Fatalf("clone id %d = %s word %d, original has %s", id, a, w, oa)
		}
	}
	fresh := U128{Hi: 0xfeed, Lo: 0xbeef}.Addr()
	id, w := cl.Intern(fresh)
	*w = 3
	if int(id) != n {
		t.Fatalf("clone's next id = %d, want %d", id, n)
	}
	if _, _, ok := tab.Find(fresh); ok {
		t.Fatal("original sees an address only the clone interned")
	}
}

// TestTableAddressIdentity pins what the table takes an address to be:
// its 16 bytes.
func TestTableAddressIdentity(t *testing.T) {
	tab := NewTable(0)
	zero, _ := tab.Intern(netip.IPv6Unspecified())
	if id, _ := tab.Intern(netip.Addr{}); id != zero {
		t.Fatalf("the zero Addr interned as %d, \"::\" as %d", id, zero)
	}
	v4, _ := tab.Intern(netip.MustParseAddr("192.0.2.1"))
	if id, _ := tab.Intern(netip.MustParseAddr("::ffff:192.0.2.1")); id != v4 {
		t.Fatalf("IPv4 and its mapped form interned as %d and %d", v4, id)
	}
	if a := tab.Addr(v4); a != netip.MustParseAddr("::ffff:192.0.2.1") {
		t.Fatalf("Addr returns %s for an IPv4 address", a)
	}
}

// TestTableProbeLengths keeps the hash honest on the address families
// real target lists are made of: under each, the mean distance of an
// address from its home slot stays near the uniform-hash expectation at
// the load the table ends on (1.6 slots at three quarters full), far from
// the clustering a weak mix of either half would cause.
func TestTableProbeLengths(t *testing.T) {
	const n = 50_000
	base := U128{Hi: 0x20010db800000000, Lo: 1}
	families := map[string]func(i int) U128{
		"sequential IIDs":       func(i int) U128 { return base.Add64(uint64(i)) },
		"sequential /64s":       func(i int) U128 { return U128{Hi: base.Hi + uint64(i), Lo: 1} },
		"sequential /48s":       func(i int) U128 { return U128{Hi: base.Hi + uint64(i)<<16, Lo: 1} },
		"high bits of each":     func(i int) U128 { return U128{Hi: uint64(i) << 44, Lo: uint64(i) << 47} },
		"EUI-64 style low half": func(i int) U128 { return U128{Hi: base.Hi + uint64(i%97), Lo: 0x0200_00ff_fe00_0000 | uint64(i)} },
	}
	for name, gen := range families {
		tab := NewTable(0)
		for i := 0; i < n; i++ {
			tab.Intern(gen(i).Addr())
		}
		if tab.Len() != n {
			t.Fatalf("%s: %d distinct addresses interned as %d", name, n, tab.Len())
		}
		mask := uint64(len(tab.slots) - 1)
		var total uint64
		for i, s := range tab.slots {
			if s.ref != 0 {
				total += (uint64(i) - s.key.hash()>>tab.shift) & mask
			}
		}
		if mean := float64(total) / n; mean > 3 {
			t.Errorf("%s: mean displacement %.2f slots at load %.2f", name, mean, float64(n)/float64(len(tab.slots)))
		}
	}
}
